#include "mac/progress_guard.h"

#include <algorithm>
#include <vector>

#include "mac/engine.h"

namespace ammb::mac {

void ProgressGuard::normalize(std::vector<Interval>& xs) {
  std::sort(xs.begin(), xs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::size_t out = 0;
  for (const Interval& x : xs) {
    if (out > 0 && x.lo <= xs[out - 1].hi + 1) {
      xs[out - 1].hi = std::max(xs[out - 1].hi, x.hi);
    } else {
      xs[out++] = x;
    }
  }
  xs.resize(out);
}

ProgressGuard::ProgressGuard(MacEngine& engine, NodeId n)
    : engine_(engine), states_(static_cast<std::size_t>(n)) {}

void ProgressGuard::onReceive(NodeId receiver, InstanceId instance, Time at) {
  states_[static_cast<std::size_t>(receiver)].covers.push_back(
      Cover{at, instance});
  if (!engine_.instance(instance).terminated) {
    // Fast path: the new cover is [at - fprog, +inf) while `instance`
    // is live, and the guard invariant keeps every uncovered window
    // start >= now - fprog (an older uncovered start would have had
    // its deadline fire — and force a covering delivery — already).
    // The whole need set is therefore covered: stand down without the
    // interval scan.  pruneCovers runs as recompute() would have, so
    // the covers vector evolves identically on both paths.
    pruneCovers(receiver);
    states_[static_cast<std::size_t>(receiver)].standDown();
    return;
  }
  // Terminated instance (epsAbort grace delivery): the cover is capped
  // at termAt - 1, no shortcut applies.
  recompute(receiver);
}

Time ProgressGuard::earliestUncovered(NodeId receiver) {
  const Time fprog = engine_.params().fprog;

  // Need set: window starts demanded by live instances of G-neighbors.
  // Quantified over the link's continuous live span: an E-edge that
  // appeared (or reappeared) after the bcast only obliges the model
  // from the epoch it came up, and one that is down right now obliges
  // nothing (the offline checker applies the same rule per span).
  std::vector<Interval>& need = need_;
  need.clear();
  for (InstanceId id : engine_.liveInstancesNear(receiver)) {
    const Instance& inst = engine_.instance(id);
    if (inst.terminated) continue;
    const Time liveSince = engine_.gEdgeLiveSince(inst.sender, receiver);
    if (liveSince == kTimeNever) continue;
    const Time lo = std::max(inst.bcastAt, liveSince);
    const Time hi = inst.plannedAck - fprog - 1;
    if (hi >= lo) need.push_back({lo, hi});
  }
  if (need.empty()) return kTimeNever;
  normalize(need);

  // Cover set: window starts already satisfied by past receives.  The
  // covers vector is appended in receive-time order, so it is already
  // sorted by interval start (rcvAt - fprog) — scan it directly.
  const State& st = states_[static_cast<std::size_t>(receiver)];
  for (const Interval& nd : need) {
    Time t = nd.lo;
    for (const Cover& c : st.covers) {
      if (t > nd.hi) break;
      const Time lo = c.rcvAt - fprog;
      if (lo > t) break;  // sorted: no later cover can contain t
      const Instance& inst = engine_.instance(c.instance);
      const Time hi = inst.terminated ? inst.termAt - 1 : kTimeNever;
      if (hi >= t) {
        t = (hi == kTimeNever) ? nd.hi + 1 : hi + 1;
      }
    }
    if (t <= nd.hi) return t;
  }
  return kTimeNever;
}

void ProgressGuard::recompute(NodeId receiver) {
  pruneCovers(receiver);
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

void ProgressGuard::pruneCovers(NodeId receiver) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  if (st.covers.size() < 128) return;
  // No live or future instance can demand window starts earlier than
  // now - fack, so finite covers that end before that are dead weight.
  const Time floor = engine_.now() - engine_.params().fack;
  // In-place compaction (order-preserving, allocation-free); the
  // retained capacity is unobservable in results.
  std::size_t out = 0;
  for (const Cover& c : st.covers) {
    const Instance& inst = engine_.instance(c.instance);
    if (inst.terminated && inst.termAt - 1 < floor) continue;
    st.covers[out++] = c;
  }
  st.covers.resize(out);
}

}  // namespace ammb::mac
