// The multi-message broadcast (MMB) problem layer.
//
// The environment injects k >= 1 messages at time 0 (k unknown to the
// nodes); the problem is solved once every message m that arrived at a
// node u has been delivered by every node in u's connected component of
// G (Section 2).  This header provides workload builders, online solve
// detection, and the offline problem-level checker that validates the
// deliver-event axioms (each node delivers a message at most once,
// never before it arrived, and — for required nodes — at least once).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/dual_graph.h"
#include "mac/layer.h"
#include "sim/trace.h"

namespace ammb::core {

/// One environment injection.
struct Arrival {
  NodeId node = kNoNode;
  MsgId msg = kNoMsg;
  /// Injection time.  The core MMB problem injects everything at t = 0;
  /// later times give the online generalization the paper mentions in
  /// Section 2 (footnote 4).
  Time at = 0;
};

/// One MMB workload: which messages arrive where and when.
struct MmbWorkload {
  /// Number of distinct messages; ids are 0..k-1.
  int k = 0;
  /// Arrival events (default time 0).
  std::vector<Arrival> arrivals;
};

/// All k messages arrive at a single node.
MmbWorkload workloadAllAtNode(int k, NodeId node);

/// Message i arrives at node (origin + i * stride) mod n — a
/// deterministic singleton assignment (no node gets two messages when
/// k <= n and stride is coprime with n).
MmbWorkload workloadRoundRobin(int k, NodeId n, NodeId origin = 0,
                               NodeId stride = 1);

/// Each message arrives at an independently random node.
MmbWorkload workloadRandom(int k, NodeId n, Rng& rng);

/// Online workload: message i arrives at a random node at time
/// i * interval (the general MMB version of footnote 4).
MmbWorkload workloadOnline(int k, NodeId n, Time interval, Rng& rng);

/// Latency profile of one message, tracked online by SolveTracker.
struct MessageMetric {
  MsgId msg = kNoMsg;
  Time arriveAt = kTimeNever;    ///< first arrive event
  Time completeAt = kTimeNever;  ///< last *required* delivery
  bool completed() const { return completeAt != kTimeNever; }
  /// Arrival-to-last-required-delivery latency (requires completed).
  Time latency() const { return completeAt - arriveAt; }
};

/// Per-message latency distribution of one run.  Percentiles use the
/// integer nearest-rank rule over the completed messages' latencies,
/// so every aggregate is an exact tick value and deterministic.
struct MessageMetrics {
  std::vector<MessageMetric> perMessage;  ///< indexed by message id
  std::uint64_t arrived = 0;    ///< messages whose arrival was observed
  std::uint64_t completed = 0;  ///< messages fully delivered where required
  Time p50Latency = 0;
  Time p95Latency = 0;
  Time maxLatency = 0;
  double meanLatency = 0.0;
};

/// Integer nearest-rank percentile of an ascending vector: the
/// ceil(p/100 * N)-th smallest element (p in [1, 100]).  Exact and
/// trivially deterministic.
Time nearestRankPercentile(const std::vector<Time>& sortedAscending,
                           unsigned p);

/// Tracks arrive/deliver events online, detects the solved condition,
/// and computes per-message latency metrics.
///
/// Requirements are registered *per arrival*: when message m arrives at
/// node u, every node of u's connected component of G must eventually
/// deliver m.  This makes the tracker streaming-capable — it needs only
/// the total message count up front (ArrivalProcess::k()), not the
/// arrival vector, and the solved condition is "the arrival stream is
/// exhausted, all k messages arrived, and no registered requirement is
/// outstanding".  Waiting for stream exhaustion is what keeps a
/// stopOnSolve run from stopping early when a later arrival of an
/// already-seen message would add requirements (e.g. in another
/// component of G).
class SolveTracker {
 public:
  /// Streaming form: requirements accrue via onArrive; the caller must
  /// invoke markArrivalsComplete once the stream is exhausted (the
  /// Experiment facade wires this to the engine's arrival source).
  SolveTracker(const graph::DualGraph& topology, int k);

  /// Eager convenience: pre-registers every arrival of `workload` (at
  /// its scheduled time), reproducing the classic all-known-up-front
  /// required set.
  SolveTracker(const graph::DualGraph& topology, const MmbWorkload& workload);

  /// Registers this tracker as the layer's arrive + deliver hooks.
  /// When `stopOnSolve` is set the layer is asked to stop at the
  /// solving delivery (protocols like FMMB never quiesce on their own).
  void attach(mac::MacLayer& layer, bool stopOnSolve = true);

  /// Observes one arrive event (idempotent per (node, msg)).
  void onArrive(NodeId node, MsgId msg, Time at);

  /// Observes one deliver event (duplicates are ignored).
  void onDeliver(NodeId node, MsgId msg, Time at);

  /// Declares that no further arrivals will ever be observed; `at` is
  /// the current simulation time (solve detection may fire here when
  /// the last requirement was already met).
  void markArrivalsComplete(Time at);

  /// True once the stream ended, every message arrived, and every
  /// required delivery happened.
  bool solved() const {
    return arrivalsComplete_ && arrivedMsgs_ == k_ && remaining_ == 0;
  }

  /// Time of the event that completed the problem (requires solved).
  Time solveTime() const;

  /// Registered deliveries still missing.
  std::int64_t remaining() const { return remaining_; }

  /// Distinct messages whose arrival has been observed.
  int arrivedMessages() const { return arrivedMsgs_; }

  /// Snapshot of the per-message latency metrics (aggregates computed
  /// deterministically at call time).
  MessageMetrics metrics() const;

 private:
  void maybeSolve(Time at);

  std::vector<int> labels_;  ///< component label per node
  NodeId n_;
  int k_;
  std::vector<char> required_;   ///< [node * k + msg]
  std::vector<char> delivered_;  ///< [node * k + msg]
  std::vector<char> msgArrived_;          ///< [msg]
  std::vector<Time> arriveAt_;            ///< [msg], kTimeNever until seen
  std::vector<Time> completeAt_;          ///< [msg], kTimeNever until done
  std::vector<std::int64_t> msgRemaining_;  ///< [msg]
  bool arrivalsComplete_ = false;
  int arrivedMsgs_ = 0;
  std::int64_t remaining_ = 0;
  Time solveTime_ = kTimeNever;
  mac::MacLayer* stopLayer_ = nullptr;  ///< asked to stop at the solve
};

/// Result of the MMB problem-level trace check.
struct MmbCheckResult {
  bool ok = true;
  std::vector<std::string> violations;
};

/// Single-pass streaming form of the MMB deliver-event check: feed the
/// trace in commit order (or attach to a live sim::Trace), then call
/// finish().  Resident memory is the two n*k bitmaps — independent of
/// trace length, so spooled traces check without materializing.
class MmbTraceChecker : public sim::TraceConsumer {
 public:
  MmbTraceChecker(const graph::DualGraph& topology,
                  const MmbWorkload& workload);

  void feed(const sim::TraceRecord& record);
  void onRecord(const sim::TraceRecord& record) override { feed(record); }

  /// Assembles the verdict; completeness clause (a) only when
  /// `requireSolved`.  Violations are byte-identical to checkMmbTrace
  /// over the same record sequence.
  MmbCheckResult finish(bool requireSolved) const;

 private:
  const graph::DualGraph& topology_;
  const MmbWorkload& workload_;
  NodeId n_;
  int k_;
  std::vector<char> arrived_;              ///< [msg]
  std::vector<char> delivered_;            ///< [node * k + msg]
  std::vector<std::string> streamViolations_;  ///< scan-order findings
};

/// Validates the deliver events of a finished execution:
///  (a) every required (node, message) pair was delivered;
///  (b) no (node, message) pair was delivered twice;
///  (c) every delivery follows the message's arrival;
///  (d) only injected messages are ever delivered.
/// Pass requireSolved = false to skip (a) for truncated runs.
/// Streams the trace through an MmbTraceChecker.
MmbCheckResult checkMmbTrace(const graph::DualGraph& topology,
                             const MmbWorkload& workload,
                             const sim::Trace& trace,
                             bool requireSolved = true);

}  // namespace ammb::core
