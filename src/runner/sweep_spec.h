// Declarative sweep specifications.
//
// The paper's results are sweeps: solve time against D, k, r, the
// scheduler, and the placement of unreliable links (Figure 1, Figure 2,
// the FMMB ablations); the online generalization adds the *arrival
// process* as a dimension of its own.  A SweepSpec captures one such
// sweep as a grid
//
//   topology generator x SchedulerKind x k x MacParams x workload
//                      x seed range
//
// for either protocol (BMMB or FMMB).  Every run of the grid is
// self-contained and seed-deterministic — the topology, arrival stream
// and execution are all derived from the spec plus the run's seed —
// which is what lets runner::SweepRunner execute runs on any number of
// worker threads and still aggregate bit-identical results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "graph/dual_graph.h"

namespace ammb::runner {

/// The "kernel" axis as a one-value tag.  Every run executes on the
/// serial engine; the tag keeps the axis's spellings (the spec key,
/// `ammb_sweep run --kernel`, the "kernel" record key) so existing
/// spec files, journals and shards stay valid.  label() is always
/// "serial".
struct KernelTag {
  std::string label() const { return "serial"; }
  /// Accepts only "serial"; any other spelling (the parallel kernel's
  /// "parallel" / "parallel:N" included) throws ammb::Error saying the
  /// parallel kernel was removed.
  static KernelTag fromLabel(const std::string& label);
};

/// Named topology generator.  `make(seed)` must be a pure function of
/// the seed so re-running a point reproduces its network.
struct TopologySpec {
  std::string name;
  std::function<graph::DualGraph(std::uint64_t seed)> make;
  /// Per-line length D of a lower-bound network-C topology (0 for
  /// every other family).  SchedulerKind::kLowerBound cells read this
  /// before the spec-level lowerBoundLineLength, so one sweep can put
  /// several network sizes on the topology axis — the Figure-2
  /// line-length sweep as a plain declarative grid.
  int lowerBoundD = 0;
};

/// Named workload-shape axis point: builds a fresh, seed-deterministic
/// arrival stream from the cell's k, the generated topology's n, and
/// the run seed.
struct WorkloadSpec {
  std::string name;
  std::function<std::unique_ptr<core::ArrivalProcess>(
      int k, NodeId n, std::uint64_t seed)>
      make;
};

/// Named MacParams grid point.
struct MacParamsSpec {
  std::string name;
  mac::MacParams params;
};

/// Named topology-dynamics grid point.  The default axis is a single
/// static entry, so classic sweeps are one-epoch and byte-identical to
/// the pre-dynamics runner; churn campaigns put crash / grey-drift
/// recipes here and sweep them like any other dimension.
struct DynamicsSpecNamed {
  std::string name = "static";
  core::DynamicsSpec spec;
};

/// FMMB constants per generated network (consulted for kFmmb only).
using FmmbParamsFactory = std::function<core::FmmbParams(NodeId n, int k)>;

/// Per-run trace checking inside sweeps.  Any mode other than kOff
/// validates every run's execution, streaming its records through the
/// oracles as they are committed; violations are carried on the
/// RunRecord and aggregated per cell (and into the CSV/JSON emitters),
/// so a sweep doubles as a model-checking campaign.  Records are
/// stored only where something reads them after the run (see
/// runConfigFor).
enum class CheckMode : std::uint8_t {
  kOff,   ///< no checking (default)
  kMac,   ///< Section 3.2.1 MAC axioms only (mac::checkTrace)
  kFull,  ///< MAC + MMB + protocol oracles (check::checkExecution)
};

/// Emitter/debug label ("off", "mac", "full").
std::string toString(CheckMode mode);

/// One declarative sweep: the full cross product of the axes below,
/// with `seedsPerCell()` repetitions of every cell.
struct SweepSpec {
  std::string name = "sweep";
  core::ProtocolKind protocol = core::ProtocolKind::kBmmb;

  // Grid axes.  Every vector must be non-empty.
  std::vector<TopologySpec> topologies;
  std::vector<core::SchedulerKind> schedulers;
  std::vector<int> ks;
  std::vector<MacParamsSpec> macs;
  std::vector<WorkloadSpec> workloads;
  /// Topology-dynamics axis; defaults to one static point.
  std::vector<DynamicsSpecNamed> dynamics = {DynamicsSpecNamed{}};
  /// Churn-reaction axis (innermost, inside dynamics); defaults to one
  /// reaction-free point, so classic sweeps keep their exact grid.
  /// A reaction *changes results* (the protocol re-arms after
  /// recoveries), so it is part of the spec's canonical form and
  /// fingerprint whenever non-default.
  std::vector<core::ReactionSpec> reactions = {core::ReactionSpec{}};

  /// Seed range [seedBegin, seedEnd): one run per seed per cell.
  std::uint64_t seedBegin = 1;
  std::uint64_t seedEnd = 2;

  // Per-run execution controls (RunConfig fields not on the grid).
  bool stopOnSolve = true;
  bool recordTrace = false;
  /// Per-run trace checking (kOff by default).
  CheckMode check = CheckMode::kOff;
  /// Retain each checked run's canonical trace serialization on its
  /// RunRecord (golden-snapshot workflows; requires check != kOff and
  /// the runner's keepRunRecords).
  bool keepCanonicalTraces = false;
  Time maxTime = kTimeNever;
  std::uint64_t maxEvents = 100'000'000;
  /// BMMB queue discipline (consulted for kBmmb only).
  core::QueueDiscipline discipline = core::QueueDiscipline::kFifo;
  /// Line length hint for SchedulerKind::kLowerBound cells.
  int lowerBoundLineLength = 0;
  /// Required iff protocol == kFmmb (rejected otherwise).
  FmmbParamsFactory fmmbParams;
  /// Execution-kernel provenance tag (always "serial").
  KernelTag kernel;
  /// Trace storage backend for every run of the sweep ("mem" default;
  /// "spool[:bufRecords]" spools records to disk and replays them
  /// through the streaming oracles).  A pure storage knob: the
  /// committed record sequence — and with it every hash, verdict and
  /// fitted bound — is identical either way, so it is NOT part of the
  /// canonical form or fingerprint.
  sim::TraceMode traceMode;
  /// Physical MAC realization for every run of the sweep (abstract by
  /// default).  Unlike the trace mode this *changes results* — a CSMA
  /// realization replaces the scheduler axis with simulated contention
  /// — so it is part of the spec's canonical form and fingerprint.
  mac::MacRealization realization;
  /// Execution backend for every run of the sweep ("sim" by default).
  /// The net backend runs each grid point over real UDP sockets on
  /// loopback; like the realization it changes results (timing is
  /// measured, not scheduled) and is part of the canonical form and
  /// fingerprint.  Requires static dynamics and the abstract
  /// realization; the scheduler axis is not consulted (a real network
  /// has no adversarial scheduler to pick).
  core::ExecutionBackend backend;

  /// Throws ammb::Error on an ill-formed spec (empty axis, missing
  /// generators, empty seed range, missing or stray FMMB factory, ...).
  void validate() const;

  std::size_t cellCount() const {
    return topologies.size() * schedulers.size() * ks.size() * macs.size() *
           workloads.size() * dynamics.size() * reactions.size();
  }
  std::size_t seedsPerCell() const {
    return static_cast<std::size_t>(seedEnd - seedBegin);
  }
  std::size_t runCount() const { return cellCount() * seedsPerCell(); }
};

/// Dense grid coordinates of one run.  Cells are numbered in
/// (topology, scheduler, k, mac, workload, dynamics, reaction)
/// lexicographic order; runs in (cell, seed) order.  enumerateRuns()
/// is the single source of truth for this order, shared by the runner
/// and the aggregator.
struct RunPoint {
  std::size_t runIndex = 0;
  std::size_t cellIndex = 0;
  std::size_t topoIdx = 0;
  std::size_t schedIdx = 0;
  std::size_t kIdx = 0;
  std::size_t macIdx = 0;
  std::size_t wlIdx = 0;
  std::size_t dynIdx = 0;
  std::size_t reactIdx = 0;
  std::uint64_t seed = 0;
};

/// Every run of the grid, in deterministic order (runIndex == position).
std::vector<RunPoint> enumerateRuns(const SweepSpec& spec);

/// The grid coordinate of one run index — the O(1) inverse of
/// enumerateRuns' ordering.  Deserialized records (shard files,
/// journals) are validated against this so a corrupt coordinate can
/// never mis-aggregate a run into the wrong cell.
RunPoint runPointFor(const SweepSpec& spec, std::size_t runIndex);

/// The RunConfig for one grid point (seed + cell axes applied).
core::RunConfig runConfigFor(const SweepSpec& spec, const RunPoint& point);

/// The ProtocolSpec for one generated network (FMMB params depend on
/// n and k through the spec's factory; `reactIdx` picks the point on
/// the churn-reaction axis).
core::ProtocolSpec protocolSpecFor(const SweepSpec& spec, NodeId n, int k,
                                   std::size_t reactIdx = 0);

// --- canonical axis builders ------------------------------------------------
// The common topology/workload families, pre-named for emitter output.
// Anything fancier: construct TopologySpec/WorkloadSpec with a lambda.

/// G' = G line of n nodes.
TopologySpec lineTopology(NodeId n);

/// Line with every G^r-pair unreliable edge kept with probability p.
TopologySpec rRestrictedLineTopology(NodeId n, int r, double edgeProb);

/// Line plus `extraEdges` uniformly random unreliable edges.
TopologySpec arbitraryNoiseLineTopology(NodeId n, std::size_t extraEdges);

/// Connected grey-zone unit-disk field (see graph::gen::greyZoneField).
TopologySpec greyZoneFieldTopology(NodeId n, double avgDegree, double c,
                                   double pGrey);

/// The Figure-2 lower-bound network C with per-line length D (carries
/// D on TopologySpec::lowerBoundD for the kLowerBound scheduler).
TopologySpec lowerBoundNetworkCTopology(int D);

/// Dynamics axis points (named for emitter output).
DynamicsSpecNamed staticDynamics();
DynamicsSpecNamed crashDynamics(int crashes, Time period, Time downFor);
DynamicsSpecNamed greyDriftDynamics(int epochs, Time period, double churn);

/// All k messages arrive at `node` at t = 0.
WorkloadSpec allAtNodeWorkload(NodeId node = 0);

/// Message i arrives at node (origin + i) mod n at t = 0.
WorkloadSpec roundRobinWorkload();

/// Message i arrives at node floor(i * n / k) at t = 0 — sources
/// spread evenly across the id space.  On the Figure-2 network C
/// (ids: line A then line B) with k = 2 this is exactly one message
/// per line head, the placement of the Lemma 3.19/3.20 adversary.
WorkloadSpec spreadWorkload();

/// Each message arrives at an independently random node (seeded).
WorkloadSpec randomWorkload();

/// Message i arrives at a random node at time i * interval.
WorkloadSpec onlineWorkload(Time interval);

/// Poisson stream: exponential gaps with mean `meanGap` ticks, each
/// arrival at an independently random node.
WorkloadSpec poissonWorkload(double meanGap);

/// Bursty batches of `batchSize` simultaneous arrivals at random
/// nodes, batches `gap` ticks apart.
WorkloadSpec burstyWorkload(int batchSize, Time gap);

/// Multi-source staggered stream: `sources` evenly spaced origins,
/// phase-shifted, one message per source every `interval` ticks.
WorkloadSpec staggeredWorkload(int sources, Time interval);

}  // namespace ammb::runner
