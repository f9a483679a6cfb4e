#include "core/mmb.h"

#include <algorithm>

namespace ammb::core {

MmbWorkload workloadAllAtNode(int k, NodeId node) {
  AMMB_REQUIRE(k >= 1, "MMB requires k >= 1");
  AMMB_REQUIRE(node >= 0, "invalid node");
  MmbWorkload w;
  w.k = k;
  for (MsgId m = 0; m < k; ++m) w.arrivals.push_back({node, m, 0});
  return w;
}

MmbWorkload workloadRoundRobin(int k, NodeId n, NodeId origin, NodeId stride) {
  AMMB_REQUIRE(k >= 1, "MMB requires k >= 1");
  AMMB_REQUIRE(n >= 1 && origin >= 0 && origin < n && stride >= 1,
               "invalid round-robin workload parameters");
  MmbWorkload w;
  w.k = k;
  for (MsgId m = 0; m < k; ++m) {
    w.arrivals.push_back(
        {static_cast<NodeId>((origin + static_cast<std::int64_t>(m) * stride) %
                             n),
         m, 0});
  }
  return w;
}

MmbWorkload workloadRandom(int k, NodeId n, Rng& rng) {
  AMMB_REQUIRE(k >= 1, "MMB requires k >= 1");
  AMMB_REQUIRE(n >= 1, "invalid node count");
  MmbWorkload w;
  w.k = k;
  for (MsgId m = 0; m < k; ++m) {
    w.arrivals.push_back(
        {static_cast<NodeId>(rng.uniformInt(0, n - 1)), m, 0});
  }
  return w;
}

MmbWorkload workloadOnline(int k, NodeId n, Time interval, Rng& rng) {
  AMMB_REQUIRE(k >= 1, "MMB requires k >= 1");
  AMMB_REQUIRE(n >= 1, "invalid node count");
  AMMB_REQUIRE(interval >= 0, "arrival interval must be non-negative");
  MmbWorkload w;
  w.k = k;
  for (MsgId m = 0; m < k; ++m) {
    w.arrivals.push_back({static_cast<NodeId>(rng.uniformInt(0, n - 1)), m,
                          interval * m});
  }
  return w;
}

SolveTracker::SolveTracker(const graph::DualGraph& topology, int k)
    : labels_(topology.g().componentLabels()), n_(topology.n()), k_(k) {
  AMMB_REQUIRE(k_ >= 1, "workload must carry at least one message");
  required_.assign(static_cast<std::size_t>(n_) * k_, 0);
  delivered_.assign(static_cast<std::size_t>(n_) * k_, 0);
  msgArrived_.assign(static_cast<std::size_t>(k_), 0);
  arriveAt_.assign(static_cast<std::size_t>(k_), kTimeNever);
  completeAt_.assign(static_cast<std::size_t>(k_), kTimeNever);
  msgRemaining_.assign(static_cast<std::size_t>(k_), 0);
}

SolveTracker::SolveTracker(const graph::DualGraph& topology,
                           const MmbWorkload& workload)
    : SolveTracker(topology, workload.k) {
  for (const auto& [node, msg, at] : workload.arrivals) {
    onArrive(node, msg, at);
  }
  // The whole arrival set is known up front; nothing can reopen it.
  arrivalsComplete_ = true;
}

void SolveTracker::attach(mac::MacLayer& layer, bool stopOnSolve) {
  stopLayer_ = stopOnSolve ? &layer : nullptr;
  layer.setArriveHook([this](NodeId node, MsgId msg, Time at) {
    onArrive(node, msg, at);
  });
  layer.setDeliverHook([this](NodeId node, MsgId msg, Time at) {
    onDeliver(node, msg, at);
  });
}

Time SolveTracker::solveTime() const {
  AMMB_REQUIRE(solved(), "the problem has not been solved yet");
  return solveTime_;
}

Time nearestRankPercentile(const std::vector<Time>& sortedAscending,
                           unsigned p) {
  AMMB_REQUIRE(!sortedAscending.empty() && p >= 1 && p <= 100,
               "nearestRankPercentile needs data and p in [1, 100]");
  const std::size_t rank =
      (static_cast<std::size_t>(p) * sortedAscending.size() + 99) / 100;
  return sortedAscending[rank - 1];
}

void SolveTracker::onArrive(NodeId node, MsgId msg, Time at) {
  AMMB_REQUIRE(node >= 0 && node < n_, "arrival node out of range");
  AMMB_REQUIRE(msg >= 0 && msg < k_, "arrival message out of range");
  const auto m = static_cast<std::size_t>(msg);
  if (!msgArrived_[m]) {
    msgArrived_[m] = 1;
    ++arrivedMsgs_;
    arriveAt_[m] = at;
  }
  // Register the requirement set of this arrival: every node of the
  // origin's component of G.  Requirements already satisfied by an
  // earlier delivery (possible when the same message arrives again
  // later, elsewhere) are counted as met.
  const int comp = labels_[static_cast<std::size_t>(node)];
  bool reopened = false;
  for (NodeId v = 0; v < n_; ++v) {
    if (labels_[static_cast<std::size_t>(v)] != comp) continue;
    const std::size_t idx = static_cast<std::size_t>(v) * k_ + msg;
    if (required_[idx]) continue;
    required_[idx] = 1;
    if (!delivered_[idx]) {
      ++remaining_;
      ++msgRemaining_[m];
      reopened = true;
    }
  }
  if (reopened) {
    completeAt_[m] = kTimeNever;
    if (!solved()) solveTime_ = kTimeNever;
  }
  maybeSolve(at);
}

void SolveTracker::onDeliver(NodeId node, MsgId msg, Time at) {
  if (node < 0 || node >= n_ || msg < 0 || msg >= k_) return;
  const std::size_t idx = static_cast<std::size_t>(node) * k_ + msg;
  if (delivered_[idx]) return;
  delivered_[idx] = 1;
  if (!required_[idx]) return;
  --remaining_;
  const auto m = static_cast<std::size_t>(msg);
  if (--msgRemaining_[m] == 0) completeAt_[m] = at;
  maybeSolve(at);
}

void SolveTracker::markArrivalsComplete(Time at) {
  if (arrivalsComplete_) return;
  arrivalsComplete_ = true;
  maybeSolve(at);
}

void SolveTracker::maybeSolve(Time at) {
  if (solved() && solveTime_ == kTimeNever) {
    solveTime_ = at;
    if (stopLayer_ != nullptr) stopLayer_->requestStop();
  }
}

MessageMetrics SolveTracker::metrics() const {
  MessageMetrics out;
  out.perMessage.resize(static_cast<std::size_t>(k_));
  std::vector<Time> latencies;
  std::int64_t sum = 0;
  for (MsgId msg = 0; msg < k_; ++msg) {
    const auto m = static_cast<std::size_t>(msg);
    MessageMetric& pm = out.perMessage[m];
    pm.msg = msg;
    pm.arriveAt = arriveAt_[m];
    pm.completeAt = completeAt_[m];
    if (msgArrived_[m]) ++out.arrived;
    if (pm.completed()) {
      ++out.completed;
      latencies.push_back(pm.latency());
      sum += pm.latency();
    }
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    out.p50Latency = nearestRankPercentile(latencies, 50);
    out.p95Latency = nearestRankPercentile(latencies, 95);
    out.maxLatency = latencies.back();
    out.meanLatency =
        static_cast<double>(sum) / static_cast<double>(latencies.size());
  }
  return out;
}

MmbTraceChecker::MmbTraceChecker(const graph::DualGraph& topology,
                                 const MmbWorkload& workload)
    : topology_(topology),
      workload_(workload),
      n_(topology.n()),
      k_(workload.k),
      arrived_(static_cast<std::size_t>(k_), 0),
      delivered_(static_cast<std::size_t>(n_) * k_, 0) {}

void MmbTraceChecker::feed(const sim::TraceRecord& rec) {
  if (rec.kind == sim::TraceKind::kArrive) {
    if (rec.msg >= 0 && rec.msg < k_) {
      arrived_[static_cast<std::size_t>(rec.msg)] = 1;
    }
  } else if (rec.kind == sim::TraceKind::kDeliver) {
    if (rec.msg < 0 || rec.msg >= k_) {
      streamViolations_.push_back("deliver of unknown message " +
                                  std::to_string(rec.msg));
      return;
    }
    if (!arrived_[static_cast<std::size_t>(rec.msg)]) {
      streamViolations_.push_back(
          "node " + std::to_string(rec.node) + " delivered message " +
          std::to_string(rec.msg) + " before any arrive event");
    }
    char& d = delivered_[static_cast<std::size_t>(rec.node) * k_ + rec.msg];
    if (d) {
      streamViolations_.push_back("node " + std::to_string(rec.node) +
                                  " delivered message " +
                                  std::to_string(rec.msg) + " twice");
    }
    d = 1;
  }
}

MmbCheckResult MmbTraceChecker::finish(bool requireSolved) const {
  MmbCheckResult result;
  result.violations = streamViolations_;
  if (requireSolved) {
    const auto labels = topology_.g().componentLabels();
    for (const auto& [node, msg, at] : workload_.arrivals) {
      (void)at;
      const int comp = labels[static_cast<std::size_t>(node)];
      for (NodeId v = 0; v < n_; ++v) {
        if (labels[static_cast<std::size_t>(v)] != comp) continue;
        if (!delivered_[static_cast<std::size_t>(v) * k_ + msg]) {
          result.violations.push_back("required delivery missing: node " +
                                      std::to_string(v) + ", message " +
                                      std::to_string(msg));
        }
      }
    }
  }
  result.ok = result.violations.empty();
  return result;
}

MmbCheckResult checkMmbTrace(const graph::DualGraph& topology,
                             const MmbWorkload& workload,
                             const sim::Trace& trace, bool requireSolved) {
  MmbTraceChecker checker(topology, workload);
  trace.forEach(
      [&checker](const sim::TraceRecord& rec) { checker.feed(rec); });
  return checker.finish(requireSolved);
}

}  // namespace ammb::core
