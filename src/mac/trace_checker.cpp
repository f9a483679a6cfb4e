#include "mac/trace_checker.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <queue>
#include <set>
#include <utility>

#include "mac/interval_union.h"

namespace ammb::mac {

namespace {

using sim::TraceKind;
using sim::TraceRecord;

/// An interval union that re-normalizes itself as it grows.
/// normalize() computes the canonical form of the *point-set union*,
/// so compacting mid-stream and appending more intervals yields
/// byte-identical firstUncovered() answers to keeping the raw list —
/// with resident size proportional to the union's fragmentation, not
/// the append count.
struct IntervalAcc {
  std::vector<Interval> xs;
  std::size_t compactAt = 64;

  void push(Interval x) {
    xs.push_back(x);
    if (xs.size() >= compactAt) {
      xs = normalize(std::move(xs));
      compactAt = std::max<std::size_t>(64, xs.size() * 2);
    }
  }
};

}  // namespace

// --- streaming checker -------------------------------------------------------
//
// The stream automaton's state per instance lives in `active_` until
// the terminating event, then briefly in `tombs_` (so deliveries inside
// the epsAbort window — legal for aborts, violations for acks — stay
// attributable), and finally only as an id in `bcastIds_`; the
// per-receiver progress algebra accumulates in IntervalAccs.
// Violations are buffered in three tiers so the assembled result
// follows the whole-trace scan / per-instance / progress pass order:
// stream-order scan violations, per-instance receive + termination
// buffers keyed by instance id, and the progress sweep at finish().

struct TraceChecker::Impl {
  struct Active {
    NodeId sender = kNoNode;
    Time bcastAt = 0;
    /// Receivers that rcv'd so far (the pre-ack set at term time).
    std::set<NodeId> seen;
    /// (receiver, rcv time) pairs that passed the E'-contention filter
    /// — their cover upper end is only known at termination.
    std::vector<std::pair<NodeId, Time>> covers;
  };

  struct Tomb {
    NodeId sender = kNoNode;
    Time termAt = 0;
    bool aborted = false;
    std::set<NodeId> seen;
  };

  struct PerInstanceV {
    std::vector<Violation> rcvV;   ///< receive-correctness, in rcv order
    std::vector<Violation> termV;  ///< ack/termination axioms
  };

  Impl(const graph::TopologyView& view, const MacParams& params,
       Time horizonClip)
      : view_(view),
        params_(params),
        horizonClip_(horizonClip),
        need_(static_cast<std::size_t>(view.n())),
        cover_(static_cast<std::size_t>(view.n())),
        candMark_(static_cast<std::size_t>(view.n()), 0) {}

  void fail(std::vector<Violation>& into, std::string axiom,
            InstanceId instance, NodeId node, Time time,
            const std::string& msg) {
    into.push_back(Violation{std::move(axiom), instance, node, time, msg});
  }

  void expireTombs(Time now) {
    while (!expiry_.empty() && expiry_.top().first < now) {
      tombs_.erase(expiry_.top().second);
      expiry_.pop();
    }
  }

  /// Adds `id` to the bcast-id runs, joining adjacent runs; false when
  /// it was already there.  Engine ids arrive dense and increasing, so
  /// the common case extends the last run in place.
  bool recordBcastId(InstanceId id) {
    const auto next = bcastIds_.upper_bound(id);
    if (next != bcastIds_.begin()) {
      const auto prev = std::prev(next);
      if (prev->second >= id) return false;
      if (prev->second + 1 == id) {
        prev->second = id;
        if (next != bcastIds_.end() && next->first == id + 1) {
          prev->second = next->second;
          bcastIds_.erase(next);
        }
        return true;
      }
    }
    InstanceId hi = id;
    if (next != bcastIds_.end() && next->first == id + 1) {
      hi = next->second;
      bcastIds_.erase(next);
    }
    bcastIds_.emplace(id, hi);
    return true;
  }

  void feed(const TraceRecord& r) {
    lastFedT_ = r.t;
    expireTombs(r.t);
    switch (r.kind) {
      case TraceKind::kBcast: onBcast(r); break;
      case TraceKind::kRcv: onRcv(r); break;
      case TraceKind::kAck:
      case TraceKind::kAbort: onTerm(r); break;
      default: break;
    }
  }

  void onBcast(const TraceRecord& r) {
    auto busyIt = busy_.find(r.node);
    if (busyIt != busy_.end()) {
      fail(scanV_, "well-formedness", r.instance, r.node, r.t,
           "well-formedness: node " + std::to_string(r.node) +
               " bcast while instance " + std::to_string(busyIt->second) +
               " is outstanding");
    }
    busy_[r.node] = r.instance;
    if (!recordBcastId(r.instance)) {
      fail(scanV_, "well-formedness", r.instance, r.node, r.t,
           "duplicate bcast record for instance " +
               std::to_string(r.instance));
      return;
    }
    Active a;
    a.sender = r.node;
    a.bcastAt = r.t;
    active_.emplace(r.instance, std::move(a));
  }

  /// Appends `local` to the instance's rcv-order violation buffer.
  /// Clean receives (the overwhelming case) never touch the map.
  void stashRcvViolations(InstanceId id, std::vector<Violation>& local) {
    if (local.empty()) return;
    auto& rcvV = perInstanceV_[id].rcvV;
    for (Violation& v : local) rcvV.push_back(std::move(v));
    local.clear();
  }

  void onRcv(const TraceRecord& r) {
    // The instance is either still active or a tombstone; both carry
    // the sender and the receivers seen so far.
    Active* a = nullptr;
    Tomb* tb = nullptr;
    if (auto it = active_.find(r.instance); it != active_.end()) {
      a = &it->second;
    } else if (auto tit = tombs_.find(r.instance); tit != tombs_.end()) {
      tb = &tit->second;
    } else {
      fail(scanV_, "rcv-unknown-instance", r.instance, r.node, r.t,
           "rcv for unknown instance " + std::to_string(r.instance));
      return;
    }
    const NodeId sender = a != nullptr ? a->sender : tb->sender;
    std::set<NodeId>& seen = a != nullptr ? a->seen : tb->seen;
    rcvScratchV_.clear();
    if (r.node == sender) {
      fail(rcvScratchV_, "rcv-at-sender", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " delivered to its sender");
    }
    const bool onGPrime = view_.dualAt(view_.epochAt(r.t))
                              .gPrime()
                              .hasEdge(sender, r.node);
    if (!onGPrime) {
      fail(rcvScratchV_, "rcv-off-gprime", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " delivered outside G' (of the epoch at t=" +
               std::to_string(r.t) + ") to node " + std::to_string(r.node));
    }
    if (!seen.insert(r.node).second) {
      fail(rcvScratchV_, "rcv-duplicate", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " delivered twice to node " + std::to_string(r.node));
    }
    if (tb != nullptr && !tb->aborted) {
      fail(rcvScratchV_, "rcv-after-ack", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) + " rcv after its ack");
    }
    if (tb != nullptr && tb->aborted && r.t > tb->termAt + params_.epsAbort) {
      fail(rcvScratchV_, "rcv-after-abort", r.instance, r.node, r.t,
           "instance " + std::to_string(r.instance) +
               " rcv more than epsAbort after its abort");
    }
    stashRcvViolations(r.instance, rcvScratchV_);
    if (!onGPrime) return;
    if (a != nullptr) {
      a->covers.emplace_back(r.node, r.t);
    } else {
      // Post-termination contending deliveries still cover, with the
      // upper end the termination already fixed.
      cover_[static_cast<std::size_t>(r.node)].push(
          {r.t - params_.fprog, tb->termAt - 1});
    }
  }

  void onTerm(const TraceRecord& r) {
    auto it = active_.find(r.instance);
    if (it == active_.end()) {
      if (tombs_.count(r.instance) > 0) {
        fail(scanV_, "term-duplicate", r.instance, r.node, r.t,
             "instance " + std::to_string(r.instance) + " terminated twice");
        checkTermOutstanding(r);
      } else {
        fail(scanV_, "term-unknown-instance", r.instance, r.node, r.t,
             "termination for unknown instance " +
                 std::to_string(r.instance));
      }
      return;
    }
    Active a = std::move(it->second);
    active_.erase(it);
    checkTermOutstanding(r);
    const bool aborted = (r.kind == TraceKind::kAbort);
    if (!aborted) {
      rcvScratchV_.clear();
      const graph::DualGraph& bcastTopo =
          view_.dualAt(view_.epochAt(a.bcastAt));
      for (NodeId j : bcastTopo.g().neighbors(a.sender)) {
        if (!view_.gEdgeLiveThroughout(a.sender, j, a.bcastAt, r.t)) {
          continue;
        }
        if (a.seen.count(j) == 0) {
          fail(rcvScratchV_, "ack-before-rcv", r.instance, j, r.t,
               "instance " + std::to_string(r.instance) +
                   " acked before G-neighbor " + std::to_string(j) +
                   " received it");
        }
      }
      if (r.t - a.bcastAt > params_.fack) {
        fail(rcvScratchV_, "ack-bound", r.instance, a.sender, r.t,
             "instance " + std::to_string(r.instance) +
                 " violated the ack bound (" +
                 std::to_string(r.t - a.bcastAt) + " > Fack)");
      }
      if (!rcvScratchV_.empty()) {
        auto& termV = perInstanceV_[r.instance].termV;
        for (Violation& v : rcvScratchV_) termV.push_back(std::move(v));
        rcvScratchV_.clear();
      }
    }
    // Progress bookkeeping: the instance's need spans and the upper
    // end of its covers are fixed by the terminating event.
    const Time termClip =
        horizonClip_ == kTimeNever ? r.t : std::min(r.t, horizonClip_);
    flushNeedSpans(a.sender, a.bcastAt, termClip);
    for (const auto& [j, d] : a.covers) {
      cover_[static_cast<std::size_t>(j)].push({d - params_.fprog, r.t - 1});
    }
    maxTermAt_ = std::max(maxTermAt_, r.t);
    Tomb tb;
    tb.sender = a.sender;
    tb.termAt = r.t;
    tb.aborted = aborted;
    tb.seen = std::move(a.seen);
    tombs_.emplace(r.instance, std::move(tb));
    expiry_.push({r.t + std::max(params_.epsAbort, params_.fack), r.instance});
  }

  void checkTermOutstanding(const TraceRecord& r) {
    auto bit = busy_.find(r.node);
    if (bit == busy_.end() || bit->second != r.instance) {
      fail(scanV_, "term-not-outstanding", r.instance, r.node, r.t,
           "termination of instance " + std::to_string(r.instance) +
               " which is not the outstanding bcast of node " +
               std::to_string(r.node));
    } else {
      busy_.erase(bit);
    }
  }

  /// One interval per maximal run of epochs throughout which the
  /// E-link is live, clipped to [bcastAt, termClip].
  void appendNeedSpans(NodeId sender, Time bcastAt, NodeId j, Time termClip,
                       IntervalAcc& need) const {
    const Time fprog = params_.fprog;
    if (termClip < bcastAt) return;
    const int e2 = view_.epochAt(termClip);
    int e = view_.epochAt(bcastAt);
    while (e <= e2) {
      if (!view_.dualAt(e).g().hasEdge(sender, j)) {
        ++e;
        continue;
      }
      int last = e;
      while (last + 1 <= e2 && view_.dualAt(last + 1).g().hasEdge(sender, j)) {
        ++last;
      }
      const Time lo = std::max(bcastAt, view_.epochStart(e));
      Time hi = termClip;
      if (last + 1 < view_.epochCount()) {
        hi = std::min(hi, view_.epochStart(last + 1));
      }
      hi -= fprog + 1;
      if (hi >= lo) need.push({lo, hi});
      e = last + 1;
    }
  }

  /// Flushes one instance's need spans into the per-receiver algebra.
  /// Candidates are the union of the sender's G-neighbors over the
  /// epochs the window touches — non-neighbors produce no spans in an
  /// all-receivers sweep, so restricting to candidates yields
  /// the identical interval multiset at O(degree · epochs) cost.
  void flushNeedSpans(NodeId sender, Time bcastAt, Time termClip) {
    if (termClip < bcastAt) return;
    const int e2 = view_.epochAt(termClip);
    candScratch_.clear();
    for (int e = view_.epochAt(bcastAt); e <= e2; ++e) {
      for (NodeId j : view_.dualAt(e).g().neighbors(sender)) {
        if (candMark_[static_cast<std::size_t>(j)] == 0) {
          candMark_[static_cast<std::size_t>(j)] = 1;
          candScratch_.push_back(j);
        }
      }
    }
    for (NodeId j : candScratch_) {
      candMark_[static_cast<std::size_t>(j)] = 0;
      appendNeedSpans(sender, bcastAt, j, termClip,
                      need_[static_cast<std::size_t>(j)]);
    }
  }

  CheckResult finish(Time horizon) {
    if (horizon == kTimeNever) {
      horizon = horizonClip_ != kTimeNever ? horizonClip_ : lastFedT_;
    }
    // The at-term need flushes assumed min(termAt, horizon) == termAt
    // when no clip was given; engine-committed traces (monotone
    // timestamps, horizon at or past the last record) satisfy this.
    AMMB_ASSERT(horizonClip_ != kTimeNever || horizon >= maxTermAt_);
    for (auto& [id, a] : active_) {
      if (a.bcastAt + params_.fack < horizon) {
        fail(perInstanceV_[id].termV, "termination", id, a.sender,
             a.bcastAt + params_.fack,
             "instance " + std::to_string(id) +
                 " never terminated although its Fack budget expired before "
                 "the horizon");
      }
      flushNeedSpans(a.sender, a.bcastAt, horizon);
      for (const auto& [j, d] : a.covers) {
        cover_[static_cast<std::size_t>(j)].push(
            {d - params_.fprog, kTimeNever});
      }
    }
    CheckResult result;
    auto emit = [&result](const Violation& v) {
      result.ok = false;
      result.violations.push_back(v.detail);
      result.records.push_back(v);
    };
    for (const Violation& v : scanV_) emit(v);
    for (const auto& [id, bufs] : perInstanceV_) {
      (void)id;
      for (const Violation& v : bufs.rcvV) emit(v);
      for (const Violation& v : bufs.termV) emit(v);
    }
    for (NodeId j = 0; j < view_.n(); ++j) {
      const Time t = firstUncovered(need_[static_cast<std::size_t>(j)].xs,
                                    cover_[static_cast<std::size_t>(j)].xs);
      if (t != kTimeNever) {
        emit(Violation{
            "progress-bound", kNoInstance, j, t,
            "progress bound violated at receiver " + std::to_string(j) +
                ": window starting at t=" + std::to_string(t) +
                " has a broadcasting G-neighbor but no covering rcv"});
      }
    }
    return result;
  }

  const graph::TopologyView& view_;
  const MacParams& params_;
  Time horizonClip_;

  std::map<NodeId, InstanceId> busy_;
  std::map<InstanceId, Active> active_;
  std::map<InstanceId, Tomb> tombs_;
  /// Every id ever bcast, as disjoint [lo, hi] runs keyed by lo: a
  /// bcast reusing an id is a duplicate even after its tomb expired.
  std::map<InstanceId, InstanceId> bcastIds_;
  /// (expiry time, instance) min-heap; a tomb expires once the stream
  /// moves past termAt + max(epsAbort, Fack).
  std::priority_queue<std::pair<Time, InstanceId>,
                      std::vector<std::pair<Time, InstanceId>>,
                      std::greater<std::pair<Time, InstanceId>>>
      expiry_;

  std::vector<Violation> scanV_;
  std::map<InstanceId, PerInstanceV> perInstanceV_;
  /// Per-record violation scratch (empty on the clean hot path).
  std::vector<Violation> rcvScratchV_;

  std::vector<IntervalAcc> need_;
  std::vector<IntervalAcc> cover_;
  std::vector<char> candMark_;
  std::vector<NodeId> candScratch_;

  Time lastFedT_ = 0;
  Time maxTermAt_ = 0;
};

TraceChecker::TraceChecker(const graph::TopologyView& view,
                           const MacParams& params, Time horizonClip)
    : impl_(std::make_unique<Impl>(view, params, horizonClip)) {}

TraceChecker::~TraceChecker() = default;

void TraceChecker::feed(const sim::TraceRecord& record) {
  impl_->feed(record);
}

CheckResult TraceChecker::finish(Time horizon) {
  return impl_->finish(horizon);
}

CheckResult checkTrace(const graph::TopologyView& view,
                       const MacParams& params, const sim::Trace& trace,
                       Time horizon) {
  AMMB_REQUIRE(trace.enabled(),
               "checkTrace requires a trace that recorded events");
  if (horizon == kTimeNever) horizon = trace.lastTime();
  TraceChecker checker(view, params, horizon);
  trace.forEach([&checker](const TraceRecord& r) { checker.feed(r); });
  return checker.finish(horizon);
}

CheckResult checkTrace(const graph::DualGraph& topology,
                       const MacParams& params, const sim::Trace& trace,
                       Time horizon) {
  const graph::TopologyView view(topology);
  return checkTrace(view, params, trace, horizon);
}

}  // namespace ammb::mac
