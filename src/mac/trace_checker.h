// Model checker for abstract-MAC-layer executions.
//
// Re-validates a recorded trace against every axiom of Section 3.2.1:
//
//   1. user well-formedness (bcasts separated by ack/abort);
//   2. receive correctness (deliveries only over E', at most one rcv
//      per (instance, receiver), no rcv after the terminating event —
//      beyond epsAbort for aborted instances);
//   3. acknowledgment correctness (ack only after every G-neighbor
//      received; a single terminating event per instance);
//   4. termination (every instance acks/aborts — instances still in
//      flight when the observation window closes are exempt unless
//      their Fack budget already expired);
//   5. the acknowledgment bound (ack within Fack);
//   6. the progress bound, via the interval algebra described in
//      progress_guard.h (need-set minus cover-set must be empty).
//
// The checker is the test suite's ground truth that no scheduler —
// including the hand-built lower-bound adversaries — is ever granted
// more power than the model allows.
//
// The production implementation is a single-pass streaming automaton
// (TraceChecker): it consumes records in commit order, retires
// per-instance state when the instance acks/aborts, and keeps the
// progress interval algebra compacted incrementally — peak memory is
// O(n + active instances), independent of trace length, so spooled
// traces check without ever materializing.  checkTrace() drives it
// over a stored trace; attach a TraceChecker to a live Trace
// (attachConsumer) to check while the run executes.
//
// One deliberate divergence from a whole-trace scan: an instance's
// state is dropped once the stream moves past termAt + max(epsAbort,
// Fack), leaving only its id in a run-length set of bcast ids.  A later
// bcast that reuses the id is still a well-formedness violation
// ("duplicate bcast record"), but rcv/ack/abort records that arrive
// for an expired instance are reported as rcv-unknown-instance /
// term-unknown-instance rather than being attributed to it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/topology_view.h"
#include "mac/params.h"
#include "sim/trace.h"

namespace ammb::mac {

/// One axiom violation, in machine-readable form.  `axiom` is a stable
/// slug (one per checked axiom family); the ids are kNoInstance /
/// kNoNode / kTimeNever when the violation has no specific instance,
/// node or timestamp.
struct Violation {
  std::string axiom;                  ///< e.g. "ack-bound", "rcv-off-gprime"
  InstanceId instance = kNoInstance;  ///< offending broadcast instance
  NodeId node = kNoNode;              ///< offending node
  Time time = kTimeNever;             ///< when the violation manifested
  std::string detail;                 ///< human-readable description
};

/// Result of checking one execution.
struct CheckResult {
  bool ok = true;
  /// Human-readable violation messages (one per structured record).
  std::vector<std::string> violations;
  /// Structured {axiom, instance, node, time} records, parallel to
  /// `violations`.
  std::vector<Violation> records;

  /// Convenience: first violation, or "ok" / "no violations recorded".
  std::string summary() const {
    if (ok) return "ok";
    return violations.empty() ? "no violations recorded" : violations.front();
  }
};

/// Single-pass streaming axiom checker.
///
/// Feed records in commit order (feed() directly, or attach to a live
/// Trace as a TraceConsumer), then call finish() once for the verdict.
/// Per-instance state is retired on ack/abort (kept briefly as a
/// tombstone so epsAbort-window deliveries stay attributable), and the
/// per-receiver need/cover interval sets are re-normalized as they
/// grow, so resident memory is O(n + active instances).
///
/// `horizonClip` bounds the observation window exactly like the
/// `horizon` argument of checkTrace(); leave it kTimeNever when the
/// horizon is only known at finish() time — correct whenever records
/// are fed in nondecreasing timestamp order and the final horizon is
/// at or past the last fed record (true for every engine-committed
/// trace).
class TraceChecker : public sim::TraceConsumer {
 public:
  TraceChecker(const graph::TopologyView& view, const MacParams& params,
               Time horizonClip = kTimeNever);
  ~TraceChecker() override;

  TraceChecker(const TraceChecker&) = delete;
  TraceChecker& operator=(const TraceChecker&) = delete;

  /// Consumes the next record of the execution.
  void feed(const sim::TraceRecord& record);
  void onRecord(const sim::TraceRecord& record) override { feed(record); }

  /// Closes the observation window and assembles the verdict.
  /// `horizon` defaults to the constructor clip when one was given,
  /// else to the last fed record's timestamp (0 if none were fed).
  CheckResult finish(Time horizon = kTimeNever);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Checks `trace` (an execution over the epoch-indexed `view` under
/// `params`, observed up to time `horizon`) against all model axioms,
/// by streaming it through a TraceChecker.  `horizon` defaults
/// (kTimeNever) to the last record's timestamp.
///
/// Epoch awareness: receive legality is judged against the topology of
/// the epoch the rcv happened in, and the acknowledgment / progress
/// guarantees are quantified only over links live for the whole
/// relevant window — an E-edge that vanished (or appeared) mid-flight
/// obliges neither a pre-ack receive nor a progress delivery beyond
/// its continuous live span.  On a single-epoch view this reduces
/// exactly to the static Section 3.2.1 axioms.
CheckResult checkTrace(const graph::TopologyView& view,
                       const MacParams& params, const sim::Trace& trace,
                       Time horizon = kTimeNever);

}  // namespace ammb::mac
