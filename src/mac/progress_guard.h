// Online enforcement of the progress bound.
//
// The progress bound (Section 3.2.1, property 5) obliges the *model* —
// not the protocol — to deliver something: whenever a node j has a
// G-neighbor broadcasting an unterminated instance for longer than
// Fprog, j must receive some contending message.  Benign schedulers
// satisfy it trivially by delivering fast; adversarial schedulers push
// deliveries as late as legal.  The guard is the engine component that
// makes *any* scheduler's execution compliant.  In interval terms, per
// receiver j,
//
//   need  = union over live instances π with sender in N_G(j) of
//           [bcastAt(π), plannedTerm(π) - Fprog - 1]      (window starts)
//   cover = union over rcv events (d, π') at j of
//           [d - Fprog, term(π') - 1]   (term = +inf while π' is live)
//
// and whenever some t in need \ cover exists, the guard arms a deadline
// at t + Fprog.  If the deadline arrives and t is still uncovered, it
// forces a delivery from a live contending instance chosen by the
// scheduler (Scheduler::pickProgressDelivery).  A candidate always
// exists: if every live contending instance had already delivered to j,
// t would be covered.
//
// The guard never stores the cover set.  Two facts reduce it to a
// frontier per receiver:
//
//   1. Every uncovered start the guard can see is >= now - Fprog: an
//      older one would have had its deadline fire — and force a
//      covering delivery — already (recompute asserts deadline >= now).
//   2. Every cover starts at d - Fprog <= now - Fprog.
//
// So on [now - Fprog, +inf) the union of covers is the single prefix
// [now - Fprog, max term - 1], and only its right end matters.  That
// end is +inf while some live instance has delivered to j (counted in
// liveCovers), else the largest termAt - 1 over terminated ones
// (coveredThrough).  The earliest uncovered start is then exactly the
// earliest need start at or after max(now - Fprog, coveredThrough + 1):
// no sort, no cover scan, and O(1) while a live cover exists.
//
// The checker in trace_checker.h verifies the same need \ cover
// obligation independently, from the trace, with explicit interval
// unions (mac/interval_union.h); the guard shares no code with it.
#pragma once

#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace ammb::mac {

class MacEngine;
struct Instance;

/// Per-receiver progress-bound bookkeeping; owned by the engine.
class ProgressGuard {
 public:
  ProgressGuard(MacEngine& engine, NodeId n);

  /// Records a receive event at `receiver` caused by `instance` now.
  void onReceive(NodeId receiver, InstanceId instance);

  /// Caps the covers `instance` gave its receivers at termAt - 1.
  /// Called once, when the instance terminates, before the engine
  /// recomputes the affected receivers.
  void onTerminate(const Instance& instance);

  /// Re-evaluates the deadline for `receiver` (called after instance
  /// birth, termination, or a receive affecting `receiver`): arms,
  /// re-arms or stands down its deadline.
  void recompute(NodeId receiver);

 private:
  struct State {
    /// Live instances that have delivered to this receiver.
    int liveCovers = 0;
    /// Right end of the covers from terminated instances (-1: none;
    /// no window starts before time 0).
    Time coveredThrough = -1;
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

  /// Earliest uncovered window start in the need set, or kTimeNever.
  Time earliestUncovered(NodeId receiver) const;

  /// Fires when an armed deadline is reached.
  void onDeadline(NodeId receiver);

  MacEngine& engine_;
  std::vector<State> states_;
};

}  // namespace ammb::mac
