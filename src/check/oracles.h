// Protocol-level invariant oracles for recorded executions.
//
// mac/trace_checker.h re-validates the Section 3.2.1 MAC-layer axioms;
// this header stacks every *other* invariant the system promises on top
// of it, so one call vets a finished run end to end:
//
//   * MAC axioms        — checkTrace over the run's trace and horizon;
//   * MMB delivery      — checkMmbTrace deliver-event axioms, with the
//                         completeness clause required only for solved
//                         runs (truncated runs are exempt: "delivered
//                         everywhere required OR limits hit");
//   * liveness          — a run that drained its event queue without
//                         solving means the protocol quiesced early
//                         (BMMB must keep relaying; FMMB never drains);
//   * FMMB structure    — lock-step round discipline: every bcast and
//                         abort sits exactly on the Fprog+1 round grid;
//   * bookkeeping       — RunResult/EngineStats agree with the trace
//                         (solve time inside the run, per-kind record
//                         counts matching the engine counters).
//
// The oracles are the ground truth of the fuzzing subsystem
// (check/fuzzer.h) and of CheckMode sweeps (runner/sweep_spec.h).
//
// The implementation is streaming: ExecutionChecker consumes records
// in commit order (feed() or a live-Trace attachConsumer) and keeps
// only O(n + active instances) of state — the internal
// mac::TraceChecker, the MMB bitmaps, per-kind counters and the FMMB
// round-grid findings — so spooled traces are vetted without ever
// materializing.  checkExecution() drives it over a stored trace.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "mac/trace_checker.h"

namespace ammb::check {

/// Merged verdict of every oracle over one execution.
struct OracleReport {
  bool ok = true;
  /// Human-readable violations, each prefixed with its oracle family
  /// ("mac:", "mmb:", "liveness:", "fmmb:", "result:").
  std::vector<std::string> violations;
  /// Structured MAC-axiom records (from mac::checkTrace), when any.
  std::vector<mac::Violation> macRecords;

  /// First violation or "ok".
  std::string summary() const {
    if (ok) return "ok";
    return violations.empty() ? "no violations recorded" : violations.front();
  }
};

/// Whether a dynamic view's final epoch restores the base reliable
/// graph: every node alive again and every base G-edge present.  True
/// for static views.  This is the liveness oracle's re-arming switch —
/// see below.
bool finalEpochRestoresConnectivity(const graph::TopologyView& view);

/// Whether the protocol spec claims to keep making progress across
/// churn — the liveness oracle's other re-arming switch.  BMMB reacts
/// under any non-kNone reaction (retransmit-on-recovery); FMMB only
/// rebases its schedule under kRetransmitRemis — plain kRetransmit is a
/// no-op there and claims nothing.
bool reactsToChurn(const core::ProtocolSpec& protocol);

/// Single-pass streaming form of checkExecution: construct against the
/// run's topology/protocol/params/workload, feed every record in
/// commit order, then finish() with the RunResult for the merged
/// verdict.
///
/// `macHorizonClip` is the observation-window clip of the internal
/// mac::TraceChecker (same semantics as its horizonClip).  kTimeNever
/// defers the horizon to finish(), which uses result.endTime — exact
/// for engine-committed traces.
class ExecutionChecker : public sim::TraceConsumer {
 public:
  ExecutionChecker(const graph::TopologyView& view,
                   const core::ProtocolSpec& protocol,
                   const mac::MacParams& mac,
                   const core::MmbWorkload& workload,
                   Time macHorizonClip = kTimeNever);
  ~ExecutionChecker() override;

  ExecutionChecker(const ExecutionChecker&) = delete;
  ExecutionChecker& operator=(const ExecutionChecker&) = delete;

  /// Consumes the next record of the execution.
  void feed(const sim::TraceRecord& record);
  void onRecord(const sim::TraceRecord& record) override { feed(record); }

  /// Assembles the merged verdict.
  OracleReport finish(const core::RunResult& result);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs every applicable oracle over one finished execution.  `trace`
/// must have recorded events; `workload` is the materialized arrival
/// stream the run consumed (core::materializeWorkload).  `view` is the
/// epoch-indexed topology the run executed over (Experiment::view()):
/// MAC axioms are checked per epoch with guarantees quantified only
/// over whole-window-live links.  The liveness oracle is suspended
/// only for dynamic views that END degraded — a topology that churned
/// and stayed broken may legitimately leave the protocol with nothing
/// left to do before solving (a message stranded behind a crash),
/// which is a measurement, not a bug.  For schedules whose final
/// epoch restores base connectivity (finalEpochRestoresConnectivity)
/// AND a protocol that claims churn reactivity (a non-default
/// core::ReactionSpec), draining unsolved is again a violation: the
/// reaction layer promises to re-arm stranded obligations once links
/// recover.  Streams the trace through an ExecutionChecker.
OracleReport checkExecution(const graph::TopologyView& view,
                            const core::ProtocolSpec& protocol,
                            const mac::MacParams& mac,
                            const core::MmbWorkload& workload,
                            const sim::Trace& trace,
                            const core::RunResult& result);

}  // namespace ammb::check
