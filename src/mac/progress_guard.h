// Online enforcement of the progress bound.
//
// The progress bound (Section 3.2.1, property 5) obliges the *model* —
// not the protocol — to deliver something: whenever a node j has a
// G-neighbor broadcasting an unterminated instance for longer than
// Fprog, j must receive some contending message.  Benign schedulers
// satisfy it trivially by delivering fast; adversarial schedulers push
// deliveries as late as legal.  The guard is the engine component that
// makes *any* scheduler's execution compliant: it tracks, per receiver,
//
//   need  = union over live instances π with sender in N_G(j) of
//           [bcastAt(π), plannedTerm(π) - Fprog - 1]      (window starts)
//   cover = union over rcv events (d, π') at j of
//           [d - Fprog, term(π') - 1]   (term = +inf while π' is live)
//
// and whenever some t in need \ cover exists, arms a deadline at
// t + Fprog.  If the deadline arrives and t is still uncovered, the
// guard forces a delivery from a live contending instance chosen by the
// scheduler (Scheduler::pickProgressDelivery).  A candidate always
// exists: if every live contending instance had already delivered to j,
// t would be covered.
//
// The same interval algebra, applied offline to a finished trace, is
// the progress-bound check in trace_checker.h.
#pragma once

#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace ammb::mac {

class MacEngine;

/// Per-receiver progress-bound bookkeeping; owned by the engine.
class ProgressGuard {
 public:
  ProgressGuard(MacEngine& engine, NodeId n);

  /// Records a receive event at `receiver` caused by `instance`.
  void onReceive(NodeId receiver, InstanceId instance, Time at);

  /// Re-evaluates the deadline for `receiver` (called after instance
  /// birth, termination, or a receive affecting `receiver`): prunes
  /// its dead covers, then arms, re-arms or stands down its deadline.
  void recompute(NodeId receiver);

 private:
  struct Cover {
    Time rcvAt;
    InstanceId instance;
  };
  struct State {
    std::vector<Cover> covers;
    sim::EventHandle armedEvent = 0;
    Time armedDeadline = kTimeNever;

    /// Drops the armed deadline (no obligation left).  Cancellation is
    /// skipped: the event may be mid-flight, and onDeadline
    /// re-validates, so a stale firing is harmless.
    void standDown() {
      armedEvent = 0;
      armedDeadline = kTimeNever;
    }
  };
  /// A closed integer interval [lo, hi]; hi == kTimeNever means +inf.
  struct Interval {
    Time lo;
    Time hi;
  };

  /// Sorts and merges overlapping/adjacent intervals in place.  Dense
  /// neighborhoods (stars, cliques) produce many near-identical need
  /// intervals; merging keeps the cover scan linear instead of
  /// quadratic.
  static void normalize(std::vector<Interval>& xs);

  /// Earliest uncovered window start in the need set, or kTimeNever.
  Time earliestUncovered(NodeId receiver);

  /// Fires when an armed deadline is reached.
  void onDeadline(NodeId receiver);

  /// Drops covers that can no longer matter.
  void pruneCovers(NodeId receiver);

  MacEngine& engine_;
  std::vector<State> states_;
  /// Scratch for earliestUncovered's need set: rebuilt on every call,
  /// only its capacity persists (unobservable in results).
  std::vector<Interval> need_;
};

}  // namespace ammb::mac
