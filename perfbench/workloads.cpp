#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "check/golden.h"
#include "check/oracles.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "ledger.h"
#include "runner/emit.h"
#include "runner/spec_io.h"
#include "runner/sweep_runner.h"

namespace perfbench {
namespace {

using ammb::core::RunResult;

/// Worker threads of the fig1-sweep runner pool (both passes).
constexpr int kSweepThreads = 2;
/// Set-up samples per fig1-sweep rep: one spec load takes tens of
/// microseconds, so a single sample would be mostly timer noise.
constexpr int kSweepSetupSamples = 25;

// --- per-run layer ledger ---------------------------------------------------

/// Host times and counts of one run, as seen from outside each layer.
/// Sums over runs on fig1-sweep.
struct RunLedger {
  double buildS = 0.0;  ///< topology generation
  double initS = 0.0;   ///< core::Experiment construction
  std::uint64_t gEdges = 0;
  std::uint64_t gpOnlyEdges = 0;
  SchedulerTotals sched;
  double runS = 0.0;      ///< Experiment::run(), consumers included
  double hashS = 0.0;     ///< TraceHasher::onRecord
  double checkerS = 0.0;  ///< ExecutionChecker construction + onRecord
  double finishS = 0.0;   ///< ExecutionChecker::finish
  std::uint64_t records = 0;
  ammb::mac::EngineStats stats;
  std::uint64_t instances = 0;
  std::uint64_t solveTicks = 0;

  RunLedger& operator+=(const RunLedger& o) {
    buildS += o.buildS;
    initS += o.initS;
    gEdges += o.gEdges;
    gpOnlyEdges += o.gpOnlyEdges;
    sched += o.sched;
    runS += o.runS;
    hashS += o.hashS;
    checkerS += o.checkerS;
    finishS += o.finishS;
    records += o.records;
    stats.bcasts += o.stats.bcasts;
    stats.rcvs += o.stats.rcvs;
    stats.forcedRcvs += o.stats.forcedRcvs;
    stats.acks += o.stats.acks;
    stats.aborts += o.stats.aborts;
    stats.delivers += o.stats.delivers;
    stats.arrives += o.stats.arrives;
    instances += o.instances;
    solveTicks += o.solveTicks;
    return *this;
  }
};

/// Adds every per-layer metric a RunLedger covers to `out`.
void fillLedger(const RunLedger& r, Ledger& out) {
  const double rcvs = static_cast<double>(r.stats.rcvs);
  const double engineSelfS =
      r.runS - r.sched.planS - r.sched.pickS - r.hashS - r.checkerS;
  out["graph.build_s"] = r.buildS;
  out["graph.g_edges"] = static_cast<double>(r.gEdges);
  out["graph.gp_only_edges"] = static_cast<double>(r.gpOnlyEdges);
  out["core.experiment_init_s"] = r.initS;
  out["mac.bcasts"] = static_cast<double>(r.stats.bcasts);
  out["mac.rcvs"] = rcvs;
  out["mac.forced_rcvs"] = static_cast<double>(r.stats.forcedRcvs);
  out["mac.forced_share"] =
      rcvs > 0 ? static_cast<double>(r.stats.forcedRcvs) / rcvs : 0.0;
  out["mac.acks"] = static_cast<double>(r.stats.acks);
  out["mac.aborts"] = static_cast<double>(r.stats.aborts);
  out["core.delivers"] = static_cast<double>(r.stats.delivers);
  out["core.solve_ticks"] = static_cast<double>(r.solveTicks);
  out["mac.instances"] = static_cast<double>(r.instances);
  out["mac.sched.plan_s"] = r.sched.planS;
  out["mac.sched.plans"] = static_cast<double>(r.sched.plans);
  out["mac.sched.planned_deliveries"] =
      static_cast<double>(r.sched.plannedDeliveries);
  out["mac.sched.pick_s"] = r.sched.pickS;
  out["mac.sched.picks"] = static_cast<double>(r.sched.picks);
  out["mac.engine_self_s"] = engineSelfS;
  out["mac.engine_self_ns_per_rcv"] = rcvs > 0 ? engineSelfS * 1e9 / rcvs : 0;
  out["sim.trace.records"] = static_cast<double>(r.records);
  out["check.hash_s"] = r.hashS;
  out["check.checker_s"] = r.checkerS;
  out["check.checker_ns_per_record"] =
      r.records > 0 ? r.checkerS * 1e9 / static_cast<double>(r.records) : 0;
  out["check.finish_s"] = r.finishS;
}

void noteTopology(const ammb::graph::DualGraph& topology, RunLedger& ledger) {
  ledger.gEdges = topology.g().edgeCount();
  ledger.gpOnlyEdges = topology.gPrime().edgeCount() - topology.g().edgeCount();
}

void noteResult(ammb::core::Experiment& experiment,
                const RunResult& result, RunLedger& ledger) {
  ledger.stats = result.stats;
  ledger.instances = experiment.engine().instances().size();
  ledger.solveTicks =
      result.solved ? static_cast<std::uint64_t>(result.solveTime) : 0;
}

// --- one checked run --------------------------------------------------------

struct CheckedRun {
  RunResult result;
  std::uint64_t traceHash = 0;
  ammb::check::OracleReport report;
};

/// Runs `experiment` with a TraceHasher and an ExecutionChecker attached
/// as streaming consumers, then finishes the checker.  With a ledger,
/// each consumer is wrapped in a TimedConsumer and a RecordCounter
/// rides along.
CheckedRun runChecked(ammb::core::Experiment& experiment,
                      const ammb::core::ProtocolSpec& protocol,
                      const ammb::mac::MacParams& params,
                      const ammb::core::MmbWorkload& workload,
                      RunLedger* ledger) {
  CheckedRun out;
  ammb::check::TraceHasher hasher;
  ammb::sim::Trace& trace = experiment.mutableTrace();
  if (ledger == nullptr) {
    ammb::check::ExecutionChecker checker(experiment.view(), protocol, params,
                                          workload);
    trace.attachConsumer(&hasher);
    trace.attachConsumer(&checker);
    out.result = experiment.run();
    out.report = checker.finish(out.result);
    out.traceHash = hasher.hash();
    return out;
  }
  const Clock::time_point initStart = Clock::now();
  ammb::check::ExecutionChecker checker(experiment.view(), protocol, params,
                                        workload);
  const double checkerInitS = secondsSince(initStart);
  TimedConsumer timedHasher(hasher);
  TimedConsumer timedChecker(checker);
  RecordCounter counter;
  trace.attachConsumer(&timedHasher);
  trace.attachConsumer(&timedChecker);
  trace.attachConsumer(&counter);
  const Clock::time_point runStart = Clock::now();
  out.result = experiment.run();
  ledger->runS = secondsSince(runStart);
  const Clock::time_point finishStart = Clock::now();
  out.report = checker.finish(out.result);
  ledger->finishS = secondsSince(finishStart);
  out.traceHash = hasher.hash();
  ledger->hashS = timedHasher.seconds();
  ledger->checkerS = checkerInitS + timedChecker.seconds();
  ledger->records = counter.records();
  return out;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string statsFingerprint(const RunResult& r) {
  const ammb::mac::EngineStats& s = r.stats;
  return "solved=" + std::to_string(r.solved ? 1 : 0) +
         " solve=" + std::to_string(r.solveTime) +
         " end=" + std::to_string(r.endTime) +
         " bcasts=" + std::to_string(s.bcasts) +
         " rcvs=" + std::to_string(s.rcvs) +
         " forced=" + std::to_string(s.forcedRcvs) +
         " acks=" + std::to_string(s.acks) +
         " aborts=" + std::to_string(s.aborts) +
         " delivers=" + std::to_string(s.delivers) +
         " arrives=" + std::to_string(s.arrives);
}

// --- bmmb-grey-checked and fmmb-grey ----------------------------------------

/// Runs on grey-zone fields: k sources spaced n/k apart at t = 0,
/// random scheduler, Fprog = 4, Fack = 32, static topology.
struct GreyShape {
  ammb::NodeId n = 0;
  double avgDegree = 0.0;
  int k = 8;
  bool fmmb = false;  ///< FMMB in the enhanced model, trace off
  /// Runs per rep, each on its own field and scheduler seed.  A single
  /// FMMB run's host cost swings with its seed (the MIS and spread
  /// stages are randomized), so its reps sum several runs.
  int runs = 1;
};

GreyShape greyShape(const WorkloadInput& input) {
  const bool smoke = input.size == Size::kSmoke;
  if (input.name == "fmmb-grey") {
    return {smoke ? 64 : 128, 10.0, 8, true, smoke ? 2 : 10};
  }
  return {smoke ? 1000 : 10000, 13.0, 8, false, 1};
}

/// One run of `shape` at `seed`, added to `rep` and `ledger`; returns
/// the run's fingerprint.
std::string greyRun(const GreyShape& shape, std::uint64_t seed, bool traced,
                    RepResult& rep, RunLedger& ledger) {
  namespace core = ammb::core;
  const Clock::time_point setupStart = Clock::now();
  ammb::Rng rng(1233 + static_cast<std::uint64_t>(shape.n) + seed);
  const ammb::graph::DualGraph topology =
      ammb::graph::gen::greyZoneField(shape.n, shape.avgDegree, 1.5, 0.3, rng);
  ledger.buildS = secondsSince(setupStart);
  noteTopology(topology, ledger);

  core::MmbWorkload workload;
  workload.k = shape.k;
  for (int i = 0; i < shape.k; ++i) {
    const auto node = static_cast<ammb::NodeId>(
        static_cast<std::int64_t>(i) * shape.n / shape.k);
    workload.arrivals.push_back({node, static_cast<ammb::MsgId>(i), 0});
  }
  core::RunConfig config;
  config.mac.fprog = 4;
  config.mac.fack = 32;
  config.mac.variant = shape.fmmb ? ammb::mac::ModelVariant::kEnhanced
                                  : ammb::mac::ModelVariant::kStandard;
  config.scheduler = core::SchedulerKind::kRandom;
  config.seed = seed;
  config.recordTrace = !shape.fmmb;
  if (traced) config.scheduler = timedScheduler(config.scheduler, ledger.sched);
  const core::ProtocolSpec protocol =
      shape.fmmb ? core::fmmbProtocol(core::FmmbParams::make(shape.n))
                 : core::bmmbProtocol();
  const Clock::time_point initStart = Clock::now();
  core::Experiment experiment(topology, protocol, workload, config);
  ledger.initS = secondsSince(initStart);
  rep.setupS.push_back(secondsSince(setupStart));
  if (traced && rep.runs == 0) {
    rep.ledger["rss_after_setup_mb"] = currentRssMb();
  }

  const Clock::time_point wallStart = Clock::now();
  CheckedRun run;
  if (shape.fmmb) {
    run.result = experiment.run();
    ledger.runS = secondsSince(wallStart);
  } else {
    run = runChecked(experiment, protocol, config.mac, workload,
                     traced ? &ledger : nullptr);
  }
  rep.wallS += secondsSince(wallStart);
  rep.rcvs += run.result.stats.rcvs;
  ++rep.runs;
  noteResult(experiment, run.result, ledger);

  std::string fingerprint = statsFingerprint(run.result) + " instances=" +
                            std::to_string(ledger.instances);
  if (!shape.fmmb) {
    fingerprint += " records=" + std::to_string(experiment.trace().size()) +
                   " hash=" + hex64(run.traceHash) +
                   " verdict=" + run.report.summary();
  }
  const std::string where = "seed " + std::to_string(seed) + ": ";
  if (!run.result.solved) rep.problems.push_back(where + "run did not solve");
  if (!run.report.ok) {
    rep.problems.push_back(where + "oracle violation: " + run.report.summary());
  }
  if (!run.result.solved || !run.report.ok) ++rep.failedRuns;
  return fingerprint;
}

RepResult greyRep(const WorkloadInput& input, bool traced) {
  const GreyShape shape = greyShape(input);
  RepResult rep;
  RunLedger total;
  std::string runs;
  for (int j = 0; j < shape.runs; ++j) {
    RunLedger ledger;
    runs += greyRun(shape,
                    input.seed * static_cast<std::uint64_t>(shape.runs) + j,
                    traced, rep, ledger) +
            "\n";
    total += ledger;
  }
  if (shape.runs == 1) {
    runs.pop_back();
    rep.fingerprint = runs;
  } else {
    // Sums over the rep's runs, plus a digest of every run's own line.
    const ammb::mac::EngineStats& s = total.stats;
    rep.fingerprint =
        "runs=" + std::to_string(rep.runs) +
        " failed=" + std::to_string(rep.failedRuns) +
        " solve_sum=" + std::to_string(total.solveTicks) +
        " bcasts=" + std::to_string(s.bcasts) +
        " rcvs=" + std::to_string(s.rcvs) +
        " acks=" + std::to_string(s.acks) +
        " aborts=" + std::to_string(s.aborts) +
        " delivers=" + std::to_string(s.delivers) +
        " instances=" + std::to_string(total.instances) +
        " digest=" + hex64(ammb::check::fnv1a(runs));
  }
  if (traced) {
    fillLedger(total, rep.ledger);
    rep.ledger["rss_after_run_mb"] = currentRssMb();
  }
  return rep;
}

// --- fig1-sweep -------------------------------------------------------------

/// Applies the workload seed and size to the loaded spec: the seed
/// range keeps its length but starts at the workload seed, and the
/// smoke size keeps one topology of each family and a single seed.
void shapeSpec(ammb::runner::SpecDoc& doc, const WorkloadInput& input) {
  const std::uint64_t seeds = doc.seedEnd - doc.seedBegin;
  doc.seedBegin = input.seed;
  doc.seedEnd = input.seed + (input.size == Size::kSmoke ? 1 : seeds);
  if (input.size == Size::kSmoke) {
    std::vector<ammb::runner::TopologyDoc> kept;
    for (const ammb::runner::TopologyDoc& topo : doc.topologies) {
      const bool seen =
          std::any_of(kept.begin(), kept.end(),
                      [&](const ammb::runner::TopologyDoc& t) {
                        return t.kind == topo.kind;
                      });
      if (!seen) kept.push_back(topo);
    }
    doc.topologies = kept;
  }
}

/// executeRun's checked (CheckMode::kFull, simulator, abstract MAC)
/// path, driven through the runner's public calls with every layer
/// timed.
ammb::runner::RunRecord tracedSweepRun(const ammb::runner::SweepSpec& spec,
                                       const ammb::runner::RunPoint& point,
                                       RunLedger& ledger) {
  namespace core = ammb::core;
  ammb::runner::RunRecord record;
  record.point = point;
  record.kernel = spec.kernel.label();
  record.traceMode = spec.traceMode.label();
  record.realization = spec.realization.label();
  record.backend = spec.backend.label();
  try {
    const Clock::time_point buildStart = Clock::now();
    const ammb::graph::DualGraph topology =
        spec.topologies[point.topoIdx].make(point.seed);
    ledger.buildS = secondsSince(buildStart);
    noteTopology(topology, ledger);
    const int k = spec.ks[point.kIdx];
    const std::unique_ptr<core::ArrivalProcess> arrivals =
        spec.workloads[point.wlIdx].make(k, topology.n(), point.seed);
    core::RunConfig config = ammb::runner::runConfigFor(spec, point);
    config.scheduler = timedScheduler(config.scheduler, ledger.sched);
    const core::ProtocolSpec protocol = ammb::runner::protocolSpecFor(
        spec, topology.n(), k, point.reactIdx);
    const core::MmbWorkload workload = core::materializeWorkload(*arrivals);
    const Clock::time_point initStart = Clock::now();
    core::Experiment experiment(topology, protocol, *arrivals, config);
    ledger.initS = secondsSince(initStart);
    CheckedRun run = runChecked(experiment, protocol,
                                core::effectiveMacParams(config), workload,
                                &ledger);
    noteResult(experiment, run.result, ledger);
    record.result = run.result;
    record.checked = true;
    record.traceHash = run.traceHash;
    record.checkViolations = std::move(run.report.violations);
  } catch (const std::exception& e) {
    record.error = e.what();
  }
  return record;
}

/// Nearest-rank percentile of `values` (sorted in place).
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, std::ceil(p * static_cast<double>(values.size())) - 1));
  return values[std::min(rank, values.size() - 1)];
}

RepResult sweepRep(const WorkloadInput& input, bool traced) {
  namespace runner = ammb::runner;
  RepResult rep;
  runner::SweepSpec spec;
  std::vector<runner::RunPoint> points;
  for (int i = 0; i < kSweepSetupSamples; ++i) {
    const Clock::time_point setupStart = Clock::now();
    runner::SpecDoc doc = runner::loadSpecFile(input.specPath);
    shapeSpec(doc, input);
    spec = runner::buildSweep(doc);
    points = runner::enumerateRuns(spec);
    rep.setupS.push_back(secondsSince(setupStart));
  }
  const double rssAfterSetup = currentRssMb();

  const Clock::time_point wallStart = Clock::now();
  runner::SweepResult result;
  std::string emitted;
  if (!traced) {
    runner::SweepRunner::Options options;
    options.threads = kSweepThreads;
    result = runner::SweepRunner(options).run(spec);
    emitted = runner::toJson(result) + runner::cellsCsv(result) +
              runner::runsCsv(result);
  } else {
    std::vector<runner::RunRecord> records(points.size());
    std::vector<RunLedger> ledgers(points.size());
    std::vector<double> runMs(points.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i = next++; i < points.size(); i = next++) {
        const Clock::time_point runStart = Clock::now();
        records[i] = tracedSweepRun(spec, points[i], ledgers[i]);
        runMs[i] = secondsSince(runStart) * 1e3;
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < kSweepThreads; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();

    const Clock::time_point aggregateStart = Clock::now();
    runner::AggregateOptions options;
    options.threads = kSweepThreads;
    result = runner::aggregateRecords(spec, std::move(records), options);
    const double aggregateS = secondsSince(aggregateStart);
    const Clock::time_point emitStart = Clock::now();
    emitted = runner::toJson(result) + runner::cellsCsv(result) +
              runner::runsCsv(result);
    const double emitS = secondsSince(emitStart);

    RunLedger total;
    for (const RunLedger& l : ledgers) total += l;
    fillLedger(total, rep.ledger);
    rep.ledger["runner.run_ms_p50"] = percentile(runMs, 0.50);
    rep.ledger["runner.run_ms_p95"] = percentile(runMs, 0.95);
    rep.ledger["runner.aggregate_s"] = aggregateS;
    rep.ledger["runner.emit_s"] = emitS;
    rep.ledger["runner.emit_bytes"] = static_cast<double>(emitted.size());
    rep.ledger["rss_after_setup_mb"] = rssAfterSetup;
    rep.ledger["rss_after_run_mb"] = currentRssMb();
  }
  rep.wallS = secondsSince(wallStart);

  std::uint64_t solved = 0;
  std::uint64_t solveSum = 0;
  for (const runner::RunRecord& r : result.runs) {
    ++rep.runs;
    rep.rcvs += r.result.stats.rcvs;
    if (r.result.solved) {
      ++solved;
      solveSum += static_cast<std::uint64_t>(r.result.solveTime);
    }
    std::string problem;
    if (!r.error.empty()) {
      problem = "error: " + r.error;
    } else if (!r.result.solved) {
      problem = "did not solve";
    } else if (!r.checkViolations.empty()) {
      problem = "oracle violation: " + r.checkViolations.front();
    }
    if (!problem.empty()) {
      ++rep.failedRuns;
      rep.problems.push_back("run " + std::to_string(r.point.runIndex) + ": " +
                             problem);
    }
  }
  rep.fingerprint =
      "runs=" + std::to_string(rep.runs) + " solved=" + std::to_string(solved) +
      " errors=" + std::to_string(result.errorCount()) +
      " violations=" + std::to_string(result.checkViolationCount()) +
      " rcvs=" + std::to_string(rep.rcvs) +
      " solve_sum=" + std::to_string(solveSum) +
      " cells=" + hex64(ammb::check::fnv1a(runner::cellsCsv(result))) +
      " runs_csv=" + hex64(ammb::check::fnv1a(runner::runsCsv(result)));
  return rep;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"bmmb-grey-checked",
                                                 "fmmb-grey", "fig1-sweep"};
  return names;
}

RepResult runRep(const WorkloadInput& input, bool traced) {
  if (input.name == "fig1-sweep") return sweepRep(input, traced);
  return greyRep(input, traced);
}

std::string pinnedFingerprint(const WorkloadInput& input) {
  struct Pin {
    const char* name;
    Size size;
    const char* fingerprint;
  };
  // Simulated outcomes at kDefaultSeed.  These are the correctness
  // contract: a change that moves any of them changed the simulation.
  static const Pin pins[] = {
      {"bmmb-grey-checked", Size::kFull,
       "solved=1 solve=200 end=200 bcasts=79905 rcvs=1212448 forced=0 "
       "acks=77564 aborts=0 delivers=80000 arrives=8 instances=79905 "
       "records=1459925 hash=0x614eb72378ce40f3 verdict=ok"},
      {"bmmb-grey-checked", Size::kSmoke,
       "solved=1 solve=151 end=151 bcasts=7718 rcvs=111684 forced=0 "
       "acks=7021 aborts=0 delivers=8000 arrives=8 instances=7718 "
       "records=135431 hash=0x63eee73356f04f79 verdict=ok"},
      {"fmmb-grey", Size::kFull,
       "runs=10 failed=0 solve_sum=194531 bcasts=392790 rcvs=3742080 "
       "acks=28713 aborts=363575 delivers=10240 instances=392790 "
       "digest=0x48ebbf4c00f1b795"},
      {"fmmb-grey", Size::kSmoke,
       "runs=2 failed=0 solve_sum=30624 bcasts=28946 rcvs=236389 acks=2079 "
       "aborts=26790 delivers=1024 instances=28946 digest=0xdc28e9621e4af41f"},
      {"fig1-sweep", Size::kFull,
       "runs=648 solved=648 errors=0 violations=0 rcvs=2080914 "
       "solve_sum=687322 cells=0xe7dca4d13692c0d2 runs_csv=0x5d244aa9f7f4d0ad"},
      {"fig1-sweep", Size::kSmoke,
       "runs=72 solved=72 errors=0 violations=0 rcvs=151825 solve_sum=70499 "
       "cells=0x63a2fd5410a6311d runs_csv=0x37bc3becce0b5ace"},
  };
  if (input.seed != kDefaultSeed) return {};
  for (const Pin& pin : pins) {
    if (input.name == pin.name && input.size == pin.size) {
      return pin.fingerprint;
    }
  }
  return {};
}

}  // namespace perfbench
