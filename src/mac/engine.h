// The abstract MAC layer engine.
//
// MacEngine composes a dual-graph topology, a message scheduler, and
// one Process automaton per node into an executable system.  It
// implements the model of Section 2 / 3.2.1 of the paper:
//
//   * acknowledged local broadcast with guaranteed delivery to all
//     G-neighbors and scheduler-chosen delivery to G'-neighbors;
//   * the Fack acknowledgment bound and the Fprog progress bound
//     (enforced online by ProgressGuard, re-checkable offline with
//     TraceChecker);
//   * the standard / enhanced model split: timers, now(), Fack/Fprog
//     knowledge and abort are rejected under ModelVariant::kStandard;
//   * environment arrive(m) inputs and protocol deliver(m) outputs.
//
// Determinism: given (topology, params, scheduler, process factory,
// seed), executions are bit-for-bit reproducible.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "graph/topology_view.h"
#include "mac/instance.h"
#include "mac/layer.h"
#include "mac/oracle.h"
#include "mac/params.h"
#include "mac/process.h"
#include "mac/progress_guard.h"
#include "mac/scheduler.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace ammb::mac {

/// The simulation engine for one execution.  Implements MacLayer, the
/// execution seam Context routes through, so protocol automata run
/// identically over this engine and the real network backend.
class MacEngine : public MacLayer {
 public:
  /// Wires the system together and schedules the wake events at t=0
  /// plus one internal transition event per topology epoch.  The view
  /// must outlive the engine (a static run wraps its DualGraph in a
  /// single-epoch graph::TopologyView).  `traceMode` selects the record
  /// storage (in-memory vector or disk spool — sim/trace.h).
  MacEngine(const graph::TopologyView& view, MacParams params,
            std::unique_ptr<Scheduler> scheduler, ProcessFactory factory,
            std::uint64_t seed, bool traceEnabled = true,
            sim::TraceMode traceMode = {});

  // --- environment ----------------------------------------------------
  /// Injects an arrive(m) event at `node` at time `at` (>= now).  The
  /// MMB problem injects everything at t=0; online arrivals are the
  /// generalization mentioned in Section 2.
  void injectArriveAt(NodeId node, MsgId msg, Time at);

  /// Registers the arrival stream and schedules its first arrival.
  void setArrivalSource(ArrivalSource source) override;

  void requestStop() override { queue_.requestStop(); }

  // --- knobs ------------------------------------------------------------
  /// Enables/disables online scheduler-plan validation (on by default).
  /// Only the fuzzing subsystem's mutation fixtures turn this off: a
  /// deliberately broken scheduler is then allowed to produce an
  /// axiom-violating execution, which the offline trace checker (and
  /// the check:: oracles built on it) must catch.  Everything else
  /// must leave validation on — it is what makes the engine's
  /// executions trustworthy regardless of the scheduler.
  void setPlanValidation(bool on) { validatePlans_ = on; }

  /// True while illegal delivery plans are rejected online.
  bool planValidation() const { return validatePlans_; }

  /// Enables/disables the per-node Process::onEpochChange notification
  /// at epoch boundaries (on by default).  Only the fuzzing
  /// subsystem's kDropOnRecovery mutation fixture turns this off: it
  /// models exactly the pre-reaction bug class — a stack that never
  /// re-arms after a boundary — which the recovery-aware liveness
  /// oracle must flag.  Honest runs must leave notification on.
  void setEpochNotification(bool on) { epochNotifications_ = on; }

  /// True while epoch boundaries notify the automatons.
  bool epochNotification() const { return epochNotifications_; }

  /// Registers the protocol oracle consulted by adversarial schedulers.
  void setOracle(const ProtocolOracle* oracle) { oracle_ = oracle; }

  /// The registered oracle, or nullptr.
  const ProtocolOracle* oracle() const { return oracle_; }

  // --- introspection ----------------------------------------------------
  Time now() const override { return queue_.now(); }
  /// The *current epoch's* topology.  Schedulers, processes and the
  /// guard all read this, so they are epoch-aware for free; on a
  /// static view it is the exact DualGraph the engine was built over.
  const graph::DualGraph& topology() const override {
    return view_->dualAt(epoch_);
  }
  /// The current epoch's flat adjacency: the same graphs as
  /// topology(), in the same neighbor order, with cheaper probes.
  const graph::CsrSnapshot& csr() const { return *csr_; }
  /// The full epoch-indexed view (offline checkers need every epoch).
  const graph::TopologyView& view() const { return *view_; }
  /// The epoch covering now().
  int currentEpoch() const { return epoch_; }
  const MacParams& params() const override { return params_; }
  NodeId n() const override { return view_->n(); }

  /// Start of the maximal run of epochs ending now throughout which
  /// {u, v} ∈ E; kTimeNever when the link is not live right now.  The
  /// progress guard quantifies its need windows from this instant.
  Time gEdgeLiveSince(NodeId u, NodeId v) const {
    return view_->gEdgeLiveSince(epoch_, u, v);
  }

  /// All instances ever created, indexed by InstanceId.
  const std::vector<Instance>& instances() const { return instances_; }
  const Instance& instance(InstanceId id) const;

  /// RNG stream reserved for the scheduler.
  Rng& schedulerRng() { return schedulerRng_; }

  /// Live instances whose sender is a G'-neighbor of `node` (i.e., the
  /// instances that may legally deliver to `node` right now).
  const std::vector<InstanceId>& liveInstancesNear(NodeId node) const;

 private:
  friend class ProgressGuard;

  struct NodeState {
    std::unique_ptr<Process> process;
    Rng rng;
    InstanceId current = kNoInstance;  ///< outstanding bcast, if any
    std::vector<InstanceId> liveNear;  ///< live instances from E' nbrs

    void addLive(InstanceId id) { liveNear.push_back(id); }
    /// Swap-removes `id` (live lists hold at most the node's E' degree
    /// in instances; the scan beats the per-node hash index it
    /// replaced, and frees its allocation).  The swap target position
    /// is the deterministic insertion position, so the list's order
    /// history is identical to the old index-based removal.
    void removeLive(InstanceId id) {
      for (std::size_t pos = 0; pos < liveNear.size(); ++pos) {
        if (liveNear[pos] != id) continue;
        if (pos + 1 != liveNear.size()) liveNear[pos] = liveNear.back();
        liveNear.pop_back();
        return;
      }
    }
  };

  // Context services (MacLayer) -------------------------------------------
  void apiBcast(NodeId node, Packet packet) override;
  bool apiBusy(NodeId node) const override;
  void apiDeliver(NodeId node, MsgId msg) override;
  TimerId apiSetTimer(NodeId node, Time at) override;
  bool apiCancelTimer(TimerId id) override;
  void apiAbort(NodeId node) override;
  void requireEnhanced(const char* api) const override;
  Rng& nodeRng(NodeId node) override;

  // Internal machinery ----------------------------------------------------
  sim::RunStatus runUntil(Time timeLimit, std::uint64_t maxEvents) override;
  void fireArrive(NodeId node, MsgId msg);
  void scheduleNextArrival();
  void validatePlan(const Instance& instance, const DeliveryPlan& plan) const;
  void performDelivery(InstanceId id, NodeId receiver, bool forced);
  void onDeliveryEvent(InstanceId id, NodeId receiver);
  void onAckEvent(InstanceId id);
  void finishInstance(Instance& instance);
  void forceProgressDelivery(NodeId receiver);
  void onEpochBoundary(int e);

  NodeState& state(NodeId node);
  const NodeState& state(NodeId node) const;
  void checkNode(NodeId node) const;

  const graph::TopologyView* view_ = nullptr;
  /// The epoch covering now(); csr_ caches its flat adjacency.
  int epoch_ = 0;
  const graph::CsrSnapshot* csr_ = nullptr;
  MacParams params_;
  std::unique_ptr<Scheduler> scheduler_;
  sim::EventQueue queue_;
  std::vector<NodeState> nodes_;
  std::vector<Instance> instances_;
  ProgressGuard guard_;
  Rng schedulerRng_;
  bool validatePlans_ = true;
  bool epochNotifications_ = true;
  const ProtocolOracle* oracle_ = nullptr;
  ArrivalSource arrivalSource_;
  std::unordered_map<TimerId, sim::EventHandle> timers_;
  TimerId nextTimer_ = 1;

  /// Scratch: sorted receiver ids for validatePlan (replaces a
  /// per-call unordered_set).
  mutable std::vector<NodeId> planScratch_;
};

}  // namespace ammb::mac
