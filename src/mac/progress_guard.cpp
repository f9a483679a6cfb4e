#include "mac/progress_guard.h"

#include <algorithm>

#include "mac/engine.h"

namespace ammb::mac {

ProgressGuard::ProgressGuard(MacEngine& engine, NodeId n)
    : engine_(engine), states_(static_cast<std::size_t>(n)) {}

void ProgressGuard::onReceive(NodeId receiver, InstanceId instance) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  const InstanceRecord& inst =
      engine_.records_[static_cast<std::size_t>(instance)];
  if (inst.termAt == kTimeNever) {
    // The new cover is [now - fprog, +inf) while `instance` is live,
    // which contains every window start the guard can still see: the
    // receiver is covered, stand down.
    ++st.liveCovers;
    st.standDown();
    return;
  }
  // Terminated instance (epsAbort grace delivery): the cover is capped
  // at termAt - 1.
  st.coveredThrough = std::max(st.coveredThrough, inst.termAt - 1);
  recompute(receiver);
}

void ProgressGuard::onTerminate(const Instance& instance) {
  for (NodeId j : instance.deliveredTo) {
    State& st = states_[static_cast<std::size_t>(j)];
    --st.liveCovers;
    AMMB_ASSERT(st.liveCovers >= 0);
    st.coveredThrough = std::max(st.coveredThrough, instance.termAt - 1);
  }
}

Time ProgressGuard::earliestUncovered(NodeId receiver) const {
  const State& st = states_[static_cast<std::size_t>(receiver)];
  if (st.liveCovers > 0) return kTimeNever;
  const Time fprog = engine_.params().fprog;
  const Time from = std::max(engine_.now() - fprog, st.coveredThrough + 1);

  // Need windows from live instances of G-neighbors, clipped to
  // [from, +inf).  Quantified over the link's continuous live span: an
  // E-edge that appeared (or reappeared) after the bcast only obliges
  // the model from the epoch it came up, and one that is down right
  // now obliges nothing (the offline checker applies the same rule per
  // span).
  Time earliest = kTimeNever;
  for (InstanceId id : engine_.liveInstancesNear(receiver)) {
    const Instance& inst = engine_.bodyOf(id);
    if (inst.terminated) continue;
    const Time hi = inst.plannedAck - fprog - 1;
    if (hi < from) continue;
    const Time liveSince = engine_.gEdgeLiveSince(inst.sender, receiver);
    if (liveSince == kTimeNever) continue;
    const Time t = std::max({inst.bcastAt, liveSince, from});
    if (t > hi || t >= earliest) continue;
    earliest = t;
    if (earliest == from) break;  // nothing earlier is uncovered
  }
  return earliest;
}

void ProgressGuard::recompute(NodeId receiver) {
  const Time t = earliestUncovered(receiver);
  State& st = states_[static_cast<std::size_t>(receiver)];
  if (t == kTimeNever) {
    st.standDown();
    return;
  }
  const Time deadline = t + engine_.params().fprog;
  AMMB_ASSERT(deadline >= engine_.now());
  if (st.armedEvent != 0 && st.armedDeadline == deadline) return;
  st.armedDeadline = deadline;
  st.armedEvent = 0;
  // Note: superseded events are left to fire and re-validate; this
  // avoids handle-reuse bookkeeping and keeps the guard reentrant.
  sim::EventQueue& queue = engine_.queue_;
  st.armedEvent =
      queue.schedule(deadline, [this, receiver] { onDeadline(receiver); });
}

void ProgressGuard::onDeadline(NodeId receiver) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  st.standDown();
  const Time t = earliestUncovered(receiver);
  if (t == kTimeNever) return;  // obligation satisfied meanwhile
  const Time deadline = t + engine_.params().fprog;
  const Time now = engine_.now();
  if (deadline > now) {
    recompute(receiver);
    return;
  }
  AMMB_ASSERT(deadline == now);
  engine_.forceProgressDelivery(receiver);
  recompute(receiver);
}

}  // namespace ammb::mac
