#include "support/offline_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "mac/interval_union.h"

namespace ammb::mac {

namespace {

using sim::TraceKind;
using sim::TraceRecord;

/// Reconstructed per-instance facts (offline reference checker).
struct InstanceFacts {
  NodeId sender = kNoNode;
  Time bcastAt = 0;
  std::size_t bcastIdx = 0;
  bool terminated = false;
  bool aborted = false;
  Time termAt = kTimeNever;
  std::size_t termIdx = 0;
  std::vector<std::pair<NodeId, std::size_t>> rcvs;  // (receiver, index)
  std::vector<Time> rcvTimes;
};

class OfflineChecker {
 public:
  OfflineChecker(const graph::TopologyView& view, const MacParams& params,
                 const sim::Trace& trace, Time horizon)
      : view_(view), params_(params), trace_(trace), horizon_(horizon) {}

  CheckResult run() {
    scan();
    checkPerInstance();
    checkProgress();
    return std::move(result_);
  }

 private:
  void fail(std::string axiom, InstanceId instance, NodeId node, Time time,
            const std::string& msg) {
    result_.ok = false;
    result_.violations.push_back(msg);
    result_.records.push_back(
        Violation{std::move(axiom), instance, node, time, msg});
  }

  void scan() {
    // busy_[v] tracks the outstanding instance of node v, enforcing
    // user well-formedness in stream order.
    std::map<NodeId, InstanceId> busy;
    const auto& recs = trace_.records();
    for (std::size_t idx = 0; idx < recs.size(); ++idx) {
      const TraceRecord& r = recs[idx];
      switch (r.kind) {
        case TraceKind::kBcast: {
          if (busy.count(r.node) > 0) {
            fail("well-formedness", r.instance, r.node, r.t,
                 "well-formedness: node " + std::to_string(r.node) +
                     " bcast while instance " + std::to_string(busy[r.node]) +
                     " is outstanding");
          }
          busy[r.node] = r.instance;
          InstanceFacts f;
          f.sender = r.node;
          f.bcastAt = r.t;
          f.bcastIdx = idx;
          if (!facts_.emplace(r.instance, f).second) {
            fail("well-formedness", r.instance, r.node, r.t,
                 "duplicate bcast record for instance " +
                     std::to_string(r.instance));
          }
          break;
        }
        case TraceKind::kRcv: {
          auto it = facts_.find(r.instance);
          if (it == facts_.end()) {
            fail("rcv-unknown-instance", r.instance, r.node, r.t,
                 "rcv for unknown instance " + std::to_string(r.instance));
            break;
          }
          it->second.rcvs.emplace_back(r.node, idx);
          it->second.rcvTimes.push_back(r.t);
          break;
        }
        case TraceKind::kAck:
        case TraceKind::kAbort: {
          auto it = facts_.find(r.instance);
          if (it == facts_.end()) {
            fail("term-unknown-instance", r.instance, r.node, r.t,
                 "termination for unknown instance " +
                     std::to_string(r.instance));
            break;
          }
          InstanceFacts& f = it->second;
          if (f.terminated) {
            fail("term-duplicate", r.instance, r.node, r.t,
                 "instance " + std::to_string(r.instance) +
                     " terminated twice");
          }
          f.terminated = true;
          f.aborted = (r.kind == TraceKind::kAbort);
          f.termAt = r.t;
          f.termIdx = idx;
          auto bit = busy.find(r.node);
          if (bit == busy.end() || bit->second != r.instance) {
            fail("term-not-outstanding", r.instance, r.node, r.t,
                 "termination of instance " + std::to_string(r.instance) +
                     " which is not the outstanding bcast of node " +
                     std::to_string(r.node));
          } else {
            busy.erase(bit);
          }
          break;
        }
        default:
          break;
      }
    }
  }

  void checkPerInstance() {
    for (const auto& [id, f] : facts_) {
      // Receive correctness.
      std::set<NodeId> seen;
      for (std::size_t i = 0; i < f.rcvs.size(); ++i) {
        const auto& [receiver, idx] = f.rcvs[i];
        const Time at = f.rcvTimes[i];
        if (receiver == f.sender) {
          fail("rcv-at-sender", id, receiver, at,
               "instance " + std::to_string(id) + " delivered to its sender");
        }
        // Legality is judged in the epoch the delivery happened: a
        // link that existed at bcast but had vanished by `at` (or a
        // crashed endpoint — dead nodes have empty adjacency) makes
        // the rcv illegal, and vice versa for links that appeared.
        if (!view_.dualAt(view_.epochAt(at))
                 .gPrime()
                 .hasEdge(f.sender, receiver)) {
          fail("rcv-off-gprime", id, receiver, at,
               "instance " + std::to_string(id) +
                   " delivered outside G' (of the epoch at t=" +
                   std::to_string(at) + ") to node " +
                   std::to_string(receiver));
        }
        if (!seen.insert(receiver).second) {
          fail("rcv-duplicate", id, receiver, at,
               "instance " + std::to_string(id) + " delivered twice to node " +
                   std::to_string(receiver));
        }
        if (idx < f.bcastIdx) {
          fail("rcv-before-bcast", id, receiver, at,
               "instance " + std::to_string(id) + " rcv precedes its bcast");
        }
        if (f.terminated && !f.aborted && idx > f.termIdx) {
          fail("rcv-after-ack", id, receiver, at,
               "instance " + std::to_string(id) + " rcv after its ack");
        }
        if (f.terminated && f.aborted && at > f.termAt + params_.epsAbort) {
          fail("rcv-after-abort", id, receiver, at,
               "instance " + std::to_string(id) +
                   " rcv more than epsAbort after its abort");
        }
      }
      // Acknowledgment correctness + ack bound.  The guarantee is
      // quantified over the bcast-epoch G-neighbors whose link stayed
      // in E (both endpoints alive) for the whole [bcast, ack] window;
      // a link that dropped mid-flight voids the obligation even if it
      // later returned (the engine never re-arms a dropped guarantee).
      if (f.terminated && !f.aborted) {
        const graph::DualGraph& bcastTopo =
            view_.dualAt(view_.epochAt(f.bcastAt));
        for (NodeId j : bcastTopo.g().neighbors(f.sender)) {
          if (!view_.gEdgeLiveThroughout(f.sender, j, f.bcastAt, f.termAt)) {
            continue;
          }
          bool found = false;
          for (std::size_t i = 0; i < f.rcvs.size(); ++i) {
            if (f.rcvs[i].first == j && f.rcvs[i].second < f.termIdx) {
              found = true;
              break;
            }
          }
          if (!found) {
            fail("ack-before-rcv", id, j, f.termAt,
                 "instance " + std::to_string(id) +
                     " acked before G-neighbor " + std::to_string(j) +
                     " received it");
          }
        }
        if (f.termAt - f.bcastAt > params_.fack) {
          fail("ack-bound", id, f.sender, f.termAt,
               "instance " + std::to_string(id) + " violated the ack bound (" +
                   std::to_string(f.termAt - f.bcastAt) + " > Fack)");
        }
      }
      // Termination.  Strict comparison: an instance whose Fack budget
      // expires exactly at the horizon may still ack at that instant
      // (runs stopped mid-tick by solve detection hit this boundary).
      if (!f.terminated && f.bcastAt + params_.fack < horizon_) {
        fail("termination", id, f.sender, f.bcastAt + params_.fack,
             "instance " + std::to_string(id) +
                 " never terminated although its Fack budget expired before "
                 "the horizon");
      }
    }
  }

  /// Appends the need intervals of one (instance, receiver) pair: one
  /// interval per maximal run of epochs throughout which the E-link is
  /// live, clipped to [bcastAt, termClip].  A window [t, t+Fprog] is
  /// only owed when it fits inside such a span — the online guard
  /// stands down at the boundary that takes the link away, and a link
  /// that (re)appears only obliges from its comeback epoch.
  void appendNeedSpans(const InstanceFacts& f, NodeId j, Time termClip,
                       std::vector<Interval>& need) const {
    const Time fprog = params_.fprog;
    if (termClip < f.bcastAt) return;
    const int e2 = view_.epochAt(termClip);
    int e = view_.epochAt(f.bcastAt);
    while (e <= e2) {
      if (!view_.dualAt(e).g().hasEdge(f.sender, j)) {
        ++e;
        continue;
      }
      int last = e;
      while (last + 1 <= e2 &&
             view_.dualAt(last + 1).g().hasEdge(f.sender, j)) {
        ++last;
      }
      const Time lo = std::max(f.bcastAt, view_.epochStart(e));
      Time hi = termClip;
      if (last + 1 < view_.epochCount()) {
        hi = std::min(hi, view_.epochStart(last + 1));
      }
      hi -= fprog + 1;
      if (hi >= lo) need.push_back({lo, hi});
      e = last + 1;
    }
  }

  void checkProgress() {
    const Time fprog = params_.fprog;
    for (NodeId j = 0; j < view_.n(); ++j) {
      std::vector<Interval> need;
      std::vector<Interval> cover;
      for (const auto& [id, f] : facts_) {
        (void)id;
        const Time term =
            f.terminated ? f.termAt : std::max(horizon_, f.bcastAt);
        appendNeedSpans(f, j, std::min(term, horizon_), need);
        for (std::size_t i = 0; i < f.rcvs.size(); ++i) {
          if (f.rcvs[i].first != j) continue;
          const Time d = f.rcvTimes[i];
          // A receive covers iff it was a contending (E'-link live at
          // delivery time) instance — the epoch-aware spelling of the
          // static G'-neighbor filter.
          if (!view_.dualAt(view_.epochAt(d))
                   .gPrime()
                   .hasEdge(f.sender, j)) {
            continue;
          }
          const Time hi = f.terminated ? f.termAt - 1 : kTimeNever;
          cover.push_back({d - fprog, hi});
        }
      }
      const Time t = firstUncovered(need, cover);
      if (t != kTimeNever) {
        fail("progress-bound", kNoInstance, j, t,
             "progress bound violated at receiver " + std::to_string(j) +
                 ": window starting at t=" + std::to_string(t) +
                 " has a broadcasting G-neighbor but no covering rcv");
      }
    }
  }

  const graph::TopologyView& view_;
  const MacParams& params_;
  const sim::Trace& trace_;
  Time horizon_;
  CheckResult result_;
  std::map<InstanceId, InstanceFacts> facts_;
};

}  // namespace

CheckResult checkTraceOffline(const graph::TopologyView& view,
                              const MacParams& params, const sim::Trace& trace,
                              Time horizon) {
  AMMB_REQUIRE(trace.enabled(),
               "checkTrace requires a trace that recorded events");
  if (horizon == kTimeNever) {
    horizon = trace.records().empty() ? 0 : trace.records().back().t;
  }
  OfflineChecker checker(view, params, trace, horizon);
  return checker.run();
}

void expectSameViolations(const std::vector<Violation>& streaming,
                          const std::vector<Violation>& reference,
                          const std::string& what) {
  ASSERT_EQ(streaming.size(), reference.size()) << what;
  for (std::size_t i = 0; i < streaming.size(); ++i) {
    EXPECT_EQ(streaming[i].axiom, reference[i].axiom) << what << " #" << i;
    EXPECT_EQ(streaming[i].instance, reference[i].instance)
        << what << " #" << i;
    EXPECT_EQ(streaming[i].node, reference[i].node) << what << " #" << i;
    EXPECT_EQ(streaming[i].time, reference[i].time) << what << " #" << i;
    EXPECT_EQ(streaming[i].detail, reference[i].detail) << what << " #" << i;
  }
}

namespace {

void expectSameVerdict(const CheckResult& streaming,
                       const CheckResult& reference, const std::string& what) {
  EXPECT_EQ(streaming.ok, reference.ok) << what;
  EXPECT_EQ(streaming.violations, reference.violations) << what;
  expectSameViolations(streaming.records, reference.records, what);
}

}  // namespace

CheckResult checkTraceWithParity(const graph::DualGraph& topology,
                                 const MacParams& params,
                                 const sim::Trace& trace, Time horizon) {
  const graph::TopologyView view(topology);
  const CheckResult reference = checkTraceOffline(view, params, trace, horizon);
  sim::Trace spool(true, sim::TraceMode::spool(4));
  trace.forEach([&spool](const TraceRecord& r) { spool.add(r); });
  expectSameVerdict(checkTrace(view, params, spool, horizon), reference,
                    "spool");
  const CheckResult streaming = checkTrace(view, params, trace, horizon);
  expectSameVerdict(streaming, reference, "mem");
  return streaming;
}

}  // namespace ammb::mac

namespace ammb::check {

namespace {

using sim::TraceKind;
using sim::TraceRecord;

void add(OracleReport& report, const char* family, const std::string& msg) {
  report.ok = false;
  report.violations.push_back(std::string(family) + ": " + msg);
}

}  // namespace

OracleReport checkExecutionOffline(const graph::TopologyView& view,
                                   const core::ProtocolSpec& protocol,
                                   const mac::MacParams& mac,
                                   const core::MmbWorkload& workload,
                                   const sim::Trace& trace,
                                   const core::RunResult& result) {
  AMMB_REQUIRE(trace.enabled(),
               "checkExecutionOffline requires a trace that recorded events");
  OracleReport report;

  mac::CheckResult macResult =
      mac::checkTraceOffline(view, mac, trace, result.endTime);
  for (const std::string& v : macResult.violations) add(report, "mac", v);
  report.macRecords = std::move(macResult.records);

  const core::MmbCheckResult mmb = core::checkMmbTrace(
      view.base(), workload, trace, /*requireSolved=*/result.solved);
  for (const std::string& v : mmb.violations) add(report, "mmb", v);

  if (!result.solved && result.status == sim::RunStatus::kDrained &&
      (!view.dynamic() ||
       (finalEpochRestoresConnectivity(view) && reactsToChurn(protocol)))) {
    add(report, "liveness",
        "event queue drained at t=" + std::to_string(result.endTime) +
            " with the MMB problem unsolved (protocol quiesced early)");
  }

  if (result.solved) {
    if (result.solveTime == kTimeNever || result.solveTime > result.endTime) {
      add(report, "result",
          "solved run reports solve time outside the execution");
    }
    if (result.messages.completed !=
        static_cast<std::uint64_t>(workload.k)) {
      add(report, "result",
          "solved run completed " + std::to_string(result.messages.completed) +
              " of " + std::to_string(workload.k) + " messages");
    }
  }
  std::uint64_t bcasts = 0, rcvs = 0, acks = 0, aborts = 0, delivers = 0,
                arrives = 0;
  for (const TraceRecord& r : trace.records()) {
    switch (r.kind) {
      case TraceKind::kBcast: ++bcasts; break;
      case TraceKind::kRcv: ++rcvs; break;
      case TraceKind::kAck: ++acks; break;
      case TraceKind::kAbort: ++aborts; break;
      case TraceKind::kDeliver: ++delivers; break;
      case TraceKind::kArrive: ++arrives; break;
      default: break;
    }
  }
  if (bcasts != result.stats.bcasts || rcvs != result.stats.rcvs ||
      acks != result.stats.acks || aborts != result.stats.aborts ||
      delivers != result.stats.delivers || arrives != result.stats.arrives) {
    add(report, "result",
        "engine counters disagree with the trace record counts");
  }

  if (protocol.kind() == core::ProtocolKind::kFmmb) {
    const Time roundLen = mac.fprog + 1;
    for (const TraceRecord& r : trace.records()) {
      if ((r.kind == TraceKind::kBcast || r.kind == TraceKind::kAbort) &&
          r.t % roundLen != 0) {
        add(report, "fmmb",
            std::string(r.kind == TraceKind::kBcast ? "bcast" : "abort") +
                " at node " + std::to_string(r.node) + " off the round grid" +
                " (t=" + std::to_string(r.t) + ", round length " +
                std::to_string(roundLen) + ")");
      }
    }
  }

  return report;
}

void expectSameReport(const OracleReport& streaming,
                      const OracleReport& reference, const std::string& what) {
  EXPECT_EQ(streaming.ok, reference.ok) << what;
  EXPECT_EQ(streaming.violations, reference.violations) << what;
  mac::expectSameViolations(streaming.macRecords, reference.macRecords, what);
}

}  // namespace ammb::check
