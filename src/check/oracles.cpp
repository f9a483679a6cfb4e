#include "check/oracles.h"

namespace ammb::check {

namespace {

using sim::TraceKind;

void add(OracleReport& report, const char* family, const std::string& msg) {
  report.ok = false;
  report.violations.push_back(std::string(family) + ": " + msg);
}

}  // namespace

bool reactsToChurn(const core::ProtocolSpec& protocol) {
  if (protocol.kind() == core::ProtocolKind::kFmmb) {
    return protocol.fmmb().reaction.remis();
  }
  return !protocol.bmmb().reaction.none();
}

bool finalEpochRestoresConnectivity(const graph::TopologyView& view) {
  if (!view.dynamic()) return true;
  const graph::CsrSnapshot& base = view.csrAt(0);
  const graph::CsrSnapshot& last = view.csrAt(view.epochCount() - 1);
  for (NodeId v = 0; v < view.base().n(); ++v) {
    if (!last.nodeAlive(v)) return false;
    // Every base reliable edge must be back: merge-walk the sorted
    // adjacency spans, requiring base ⊆ last.
    const auto baseAdj = base.gNeighbors(v);
    const auto lastAdj = last.gNeighbors(v);
    const NodeId* b = baseAdj.begin();
    const NodeId* l = lastAdj.begin();
    while (b != baseAdj.end()) {
      while (l != lastAdj.end() && *l < *b) ++l;
      if (l == lastAdj.end() || *l != *b) return false;
      ++b;
    }
  }
  return true;
}

struct ExecutionChecker::Impl {
  Impl(const graph::TopologyView& viewIn, const core::ProtocolSpec& protocolIn,
       const mac::MacParams& macIn, const core::MmbWorkload& workloadIn,
       Time macHorizonClip)
      : view(viewIn),
        protocol(protocolIn),
        workload(workloadIn),
        macChecker(viewIn, macIn, macHorizonClip),
        mmb(viewIn.base(), workloadIn),
        roundLen(macIn.fprog + 1) {}

  const graph::TopologyView& view;
  const core::ProtocolSpec& protocol;
  const core::MmbWorkload& workload;

  mac::TraceChecker macChecker;
  core::MmbTraceChecker mmb;

  std::uint64_t bcasts = 0, rcvs = 0, acks = 0, aborts = 0, delivers = 0,
                arrives = 0;

  Time roundLen;
  /// FMMB lock-step findings, in stream order.
  std::vector<std::string> fmmbViolations;
};

ExecutionChecker::ExecutionChecker(const graph::TopologyView& view,
                                   const core::ProtocolSpec& protocol,
                                   const mac::MacParams& mac,
                                   const core::MmbWorkload& workload,
                                   Time macHorizonClip)
    : impl_(std::make_unique<Impl>(view, protocol, mac, workload,
                                   macHorizonClip)) {}

ExecutionChecker::~ExecutionChecker() = default;

void ExecutionChecker::feed(const sim::TraceRecord& r) {
  Impl& im = *impl_;
  im.macChecker.feed(r);
  im.mmb.feed(r);
  switch (r.kind) {
    case TraceKind::kBcast: ++im.bcasts; break;
    case TraceKind::kRcv: ++im.rcvs; break;
    case TraceKind::kAck: ++im.acks; break;
    case TraceKind::kAbort: ++im.aborts; break;
    case TraceKind::kDeliver: ++im.delivers; break;
    case TraceKind::kArrive: ++im.arrives; break;
    default: break;
  }
  if (im.protocol.kind() == core::ProtocolKind::kFmmb &&
      (r.kind == TraceKind::kBcast || r.kind == TraceKind::kAbort) &&
      r.t % im.roundLen != 0) {
    im.fmmbViolations.push_back(
        std::string(r.kind == TraceKind::kBcast ? "bcast" : "abort") +
        " at node " + std::to_string(r.node) + " off the round grid" +
        " (t=" + std::to_string(r.t) + ", round length " +
        std::to_string(im.roundLen) + ")");
  }
}

OracleReport ExecutionChecker::finish(const core::RunResult& result) {
  Impl& im = *impl_;
  OracleReport report;

  // 1. MAC-layer axioms, up to the time the run stopped — epoch-aware:
  // each delivery is judged against its epoch's topology and the
  // ack/progress guarantees only bind whole-window-live links.
  mac::CheckResult macResult = im.macChecker.finish(result.endTime);
  for (const std::string& v : macResult.violations) add(report, "mac", v);
  report.macRecords = std::move(macResult.records);

  // 2. MMB deliver-event axioms.  Completeness (every required node
  // delivered every message) is demanded only of solved runs; a run
  // truncated by its limits is exempt by definition.  Requirements are
  // quantified over the base topology's components, matching the
  // online SolveTracker.
  const core::MmbCheckResult mmb = im.mmb.finish(result.solved);
  for (const std::string& v : mmb.violations) add(report, "mmb", v);

  // 3. Liveness: an unsolved run may stop because a limit cut it off —
  // never because the protocol ran out of things to do.  The oracle's
  // suspension is scoped, not blanket: it stands down only for dynamic
  // schedules that *end* degraded, where a message can be legitimately
  // stranded (it arrived at a node whose neighbors finished relaying
  // before a crash healed — a finding for the sweep tables, not an
  // axiom violation).  When the final epoch restores the base reliable
  // graph with every node alive AND the protocol claims churn
  // reactivity, stranding is back to being a protocol bug: the
  // reaction layer exists precisely to re-arm those obligations, so a
  // drained unsolved run means it silently dropped them.  Non-reactive
  // protocols under churn stay exempt (the paper's protocols make no
  // promise across epochs).
  if (!result.solved && result.status == sim::RunStatus::kDrained &&
      (!im.view.dynamic() ||
       (finalEpochRestoresConnectivity(im.view) &&
        reactsToChurn(im.protocol)))) {
    add(report, "liveness",
        "event queue drained at t=" + std::to_string(result.endTime) +
            " with the MMB problem unsolved (protocol quiesced early)");
  }

  // 4. Result bookkeeping against the trace.
  if (result.solved) {
    if (result.solveTime == kTimeNever || result.solveTime > result.endTime) {
      add(report, "result",
          "solved run reports solve time outside the execution");
    }
    if (result.messages.completed !=
        static_cast<std::uint64_t>(im.workload.k)) {
      add(report, "result",
          "solved run completed " + std::to_string(result.messages.completed) +
              " of " + std::to_string(im.workload.k) + " messages");
    }
  }
  if (im.bcasts != result.stats.bcasts || im.rcvs != result.stats.rcvs ||
      im.acks != result.stats.acks || im.aborts != result.stats.aborts ||
      im.delivers != result.stats.delivers ||
      im.arrives != result.stats.arrives) {
    add(report, "result",
        "engine counters disagree with the trace record counts");
  }

  // 5. FMMB lock-step structure: RoundedProcess may bcast/abort only at
  // round starts, and rounds last exactly Fprog + 1 ticks.
  for (const std::string& v : im.fmmbViolations) add(report, "fmmb", v);

  return report;
}

OracleReport checkExecution(const graph::TopologyView& view,
                            const core::ProtocolSpec& protocol,
                            const mac::MacParams& mac,
                            const core::MmbWorkload& workload,
                            const sim::Trace& trace,
                            const core::RunResult& result) {
  AMMB_REQUIRE(trace.enabled(),
               "checkExecution requires a trace that recorded events");
  ExecutionChecker checker(view, protocol, mac, workload, result.endTime);
  trace.forEach(
      [&checker](const sim::TraceRecord& r) { checker.feed(r); });
  return checker.finish(result);
}

}  // namespace ammb::check
