// The real UDP message-passing backend, bottom to top: the
// ExecutionBackend label codec, the wire format, the deterministic
// fault plan, engine lifecycle (immediate drain), and the loopback
// end-to-end acceptance bar — BMMB on a 16-node line with injected
// loss solves MMB over real sockets, its recorded trace passes
// checkTrace and the full oracle suite under phys::measureRealized
// fitted bounds, and an injected ack delay beyond a cleanly fitted
// Fack is flagged by the checker.
#include <gtest/gtest.h>

#include <memory>

#include "check/oracles.h"
#include "core/backend.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "net/engine.h"
#include "net/fault.h"
#include "net/wire.h"
#include "phys/measurement.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::ExecutionBackend;
using mac::NetBackendParams;

namespace gen = graph::gen;

// --- label codec -------------------------------------------------------------

TEST(NetBackendUnit, LabelsAndRoundTrips) {
  EXPECT_EQ(ExecutionBackend().label(), "sim");
  EXPECT_EQ(ExecutionBackend::simBackend().label(), "sim");
  EXPECT_EQ(ExecutionBackend::netWith(NetBackendParams{}).label(), "net");

  NetBackendParams custom;
  custom.basePort = 19000;
  custom.loss = 0.25;
  custom.tickUs = 200;
  custom.gPrimeAttempts = 5;
  custom.ackDelayTicks = 12;
  custom.jitterUs = 300;
  EXPECT_EQ(ExecutionBackend::netWith(custom).label(),
            "net:19000,0.25,200,5,12,300");

  for (const std::string label :
       {"sim", "net", "net:19000,0.25,200,5,12,300", "net:0,0.1,100,3,0,0"}) {
    EXPECT_EQ(ExecutionBackend::fromLabel(label).label(), label) << label;
  }
  // The explicit default vector is the same backend as the shorthand
  // and canonicalizes back to it.
  EXPECT_EQ(ExecutionBackend::fromLabel("net:0,0,100,3,0,0"),
            ExecutionBackend::fromLabel("net"));
  EXPECT_EQ(ExecutionBackend::fromLabel("net:0,0,100,3,0,0").label(), "net");

  EXPECT_THROW(ExecutionBackend::fromLabel(""), Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("Sim"), Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("net:"), Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("net:0,0.1"), Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("net:0,0.1,100,3,0,0,extra"),
               Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("tcp"), Error);
  // Labels that parse but violate NetBackendParams::validate().
  EXPECT_THROW(ExecutionBackend::fromLabel("net:80,0,100,3,0,0"), Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("net:0,0.99,100,3,0,0"), Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("net:0,0,0,3,0,0"), Error);
  EXPECT_THROW(ExecutionBackend::fromLabel("net:0,0,100,0,0,0"), Error);
}

// --- wire format -------------------------------------------------------------

TEST(NetBackendUnit, WireCodecRoundTrips) {
  net::WireDatagram data;
  data.kind = net::WireKind::kData;
  data.from = 7;
  for (int i = 0; i < 3; ++i) {
    net::WireMessage m;
    m.seq = 1000 + static_cast<std::uint64_t>(i);
    m.instance = 42 + i;
    m.packet.kind = mac::PacketKind::kData;
    m.packet.sender = 7;
    m.packet.tag = -3 + i;
    m.packet.bits = 0xdeadbeefcafe0000ULL + static_cast<std::uint64_t>(i);
    m.packet.msgs = {i, i + 1};
    data.messages.push_back(m);
  }
  const std::vector<std::uint8_t> bytes = net::encodeDatagram(data);
  const net::WireDatagram back = net::decodeDatagram(bytes.data(),
                                                     bytes.size());
  ASSERT_EQ(back.kind, net::WireKind::kData);
  EXPECT_EQ(back.from, 7);
  ASSERT_EQ(back.messages.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.messages[i].seq, data.messages[i].seq);
    EXPECT_EQ(back.messages[i].instance, data.messages[i].instance);
    EXPECT_EQ(back.messages[i].packet.sender, 7);
    EXPECT_EQ(back.messages[i].packet.tag, data.messages[i].packet.tag);
    EXPECT_EQ(back.messages[i].packet.bits, data.messages[i].packet.bits);
    EXPECT_EQ(back.messages[i].packet.msgs, data.messages[i].packet.msgs);
  }

  net::WireDatagram ack;
  ack.kind = net::WireKind::kAck;
  ack.from = 3;
  ack.acks = {1, 2, 0xffffffffffffffffULL};
  const std::vector<std::uint8_t> ackBytes = net::encodeDatagram(ack);
  const net::WireDatagram ackBack =
      net::decodeDatagram(ackBytes.data(), ackBytes.size());
  ASSERT_EQ(ackBack.kind, net::WireKind::kAck);
  EXPECT_EQ(ackBack.from, 3);
  EXPECT_EQ(ackBack.acks, ack.acks);
}

TEST(NetBackendUnit, WireCodecRejectsMalformedDatagrams) {
  net::WireDatagram dg;
  dg.kind = net::WireKind::kAck;
  dg.from = 1;
  dg.acks = {5};
  std::vector<std::uint8_t> bytes = net::encodeDatagram(dg);

  // Truncation, trailing garbage, bad magic, oversized batch.
  EXPECT_THROW(net::decodeDatagram(bytes.data(), bytes.size() - 1), Error);
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_THROW(net::decodeDatagram(longer.data(), longer.size()), Error);
  std::vector<std::uint8_t> badMagic = bytes;
  badMagic[0] ^= 0xff;
  EXPECT_THROW(net::decodeDatagram(badMagic.data(), badMagic.size()), Error);
  dg.acks.assign(net::kBatchLimit + 1, 9);
  EXPECT_THROW(net::encodeDatagram(dg), Error);
  EXPECT_THROW(net::decodeDatagram(bytes.data(), 0), Error);
}

// --- fault plan --------------------------------------------------------------

TEST(NetBackendUnit, FaultPlanIsAPureFunctionOfItsKey) {
  const net::FaultPlan plan(77, 0.5, 1000);
  const net::FaultPlan same(77, 0.5, 1000);
  const net::FaultPlan other(78, 0.5, 1000);
  int drops = 0;
  int divergences = 0;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
      const bool d = plan.drop(1, 2, seq, attempt);
      // Reproducible regardless of evaluation order or repetition.
      EXPECT_EQ(d, same.drop(1, 2, seq, attempt));
      EXPECT_EQ(plan.delayUs(1, 2, seq, attempt),
                same.delayUs(1, 2, seq, attempt));
      EXPECT_LE(plan.delayUs(1, 2, seq, attempt), 1000);
      EXPECT_GE(plan.delayUs(1, 2, seq, attempt), 0);
      if (d) ++drops;
      if (d != other.drop(1, 2, seq, attempt)) ++divergences;
    }
  }
  // p = 0.5 over 600 attempts: both margins are astronomically safe.
  EXPECT_GT(drops, 200);
  EXPECT_LT(drops, 400);
  EXPECT_GT(divergences, 100);  // a different seed is a different plan

  // The directed link is part of the key.
  bool directional = false;
  for (std::uint64_t seq = 1; seq <= 64 && !directional; ++seq) {
    directional = plan.drop(1, 2, seq, 0) != plan.drop(2, 1, seq, 0);
  }
  EXPECT_TRUE(directional);

  const net::FaultPlan lossless(77, 0.0, 0);
  EXPECT_FALSE(lossless.active());
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    EXPECT_FALSE(lossless.drop(1, 2, seq, 0));
    EXPECT_EQ(lossless.delayUs(1, 2, seq, 0), 0);
  }
  EXPECT_THROW(net::FaultPlan(1, 1.0, 0), Error);
  EXPECT_THROW(net::FaultPlan(1, -0.1, 0), Error);
}

// --- engine lifecycle --------------------------------------------------------

TEST(NetBackendEngine, IdleSystemDrainsImmediately) {
  const graph::DualGraph topology = gen::identityDual(gen::line(3));
  const graph::TopologyView view(topology);
  net::NetConfig config;
  config.net.tickUs = 100;
  net::NetEngine engine(view, testutil::stdParams(4, 32),
                        [](NodeId) { return std::make_unique<mac::Process>(); },
                        config);
  const sim::RunStatus status = engine.run(/*timeLimit=*/50'000);
  EXPECT_EQ(status, sim::RunStatus::kDrained);
  // Exactly the wake records, one per node.
  ASSERT_EQ(engine.trace().size(), 3u);
  for (const sim::TraceRecord& r : engine.trace().records()) {
    EXPECT_EQ(r.kind, sim::TraceKind::kWake);
  }
  EXPECT_EQ(engine.stats().bcasts, 0u);
  EXPECT_EQ(engine.now(), engine.now());  // frozen after the run
}

// --- loopback end-to-end -----------------------------------------------------

struct NetRun {
  core::MmbWorkload workload;
  core::RunConfig config;
  std::unique_ptr<core::Experiment> experiment;
  core::RunResult result;
  mac::MacParams envelope;
  phys::RealizedBounds realized;
  mac::MacParams fitted;
};

NetRun runBmmbOverNet(const graph::DualGraph& topology, int k,
                      const NetBackendParams& net, std::uint64_t seed) {
  NetRun run;
  run.workload = core::workloadAllAtNode(k, 0);
  run.config.mac = testutil::stdParams(4, 32);
  run.config.seed = seed;
  run.config.recordTrace = true;
  run.config.limits.maxTime = 150'000;  // ticks of wall clock; generous
  run.config.backend = ExecutionBackend::netWith(net);
  run.experiment = std::make_unique<core::Experiment>(
      topology, core::bmmbProtocol(), run.workload, run.config);
  run.result = run.experiment->run();
  run.envelope = core::effectiveMacParams(run.config);
  run.realized = phys::measureRealized(run.experiment->view(), run.envelope,
                                       run.experiment->trace(),
                                       run.result.endTime);
  run.fitted = phys::fittedParams(run.realized, run.envelope);
  return run;
}

TEST(NetBackendE2E, BmmbSolvesOnLossyLoopbackAndChecksGreen) {
  const graph::DualGraph topology = gen::identityDual(gen::line(16));
  NetBackendParams net;
  net.loss = 0.25;
  net.tickUs = 200;
  const NetRun run = runBmmbOverNet(topology, 4, net, 11);

  // Injected loss forces the ack/retransmit machinery to earn the
  // perfect-link semantics; the problem must still solve.
  ASSERT_TRUE(run.result.solved)
      << "status " << sim::toString(run.result.status);
  EXPECT_EQ(run.result.messages.completed, 4u);
  EXPECT_GE(run.result.stats.bcasts, 16u * 4u - 4u);  // every hop forwards
  // stopOnSolve halts at the final delivery, so instances still in
  // flight never reach their MAC-level ack (censored, not lost).
  EXPECT_LE(run.result.stats.acks, run.result.stats.bcasts);
  EXPECT_GT(run.result.stats.acks, 0u);

  // The recorded trace is a valid abstract-MAC execution under the
  // *measured* constants — the paper's abstraction, realized by UDP.
  ASSERT_TRUE(run.realized.measured());
  EXPECT_GT(run.realized.ackSamples, 0u);
  EXPECT_GT(run.realized.progSamples, 0u);
  const mac::CheckResult check =
      mac::checkTrace(run.experiment->view(), run.fitted,
                      run.experiment->trace(), run.result.endTime);
  EXPECT_TRUE(check.ok) << check.summary();
  const check::OracleReport report = check::checkExecution(
      run.experiment->view(), core::bmmbProtocol(), run.fitted, run.workload,
      run.experiment->trace(), run.result);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(NetBackendE2E, InjectedAckDelayIsFlaggedUnderCleanFittedBounds) {
  const graph::DualGraph topology = gen::identityDual(gen::line(8));

  // Fit Fack/Fprog from a clean loopback run...
  NetBackendParams clean;
  clean.tickUs = 200;
  const NetRun sane = runBmmbOverNet(topology, 3, clean, 13);
  ASSERT_TRUE(sane.result.solved);
  ASSERT_TRUE(sane.realized.measured());

  // ...then hold every MAC-level ack back for ~3x the fitted Fack.
  NetBackendParams delayed = clean;
  delayed.ackDelayTicks = sane.fitted.fack * 3 + 200;
  const NetRun wild = runBmmbOverNet(topology, 3, delayed, 13);
  ASSERT_TRUE(wild.result.solved);

  // The clean fitted bounds must NOT absolve the delayed run: its acks
  // exceed Fack, and the checker says exactly that.
  const mac::CheckResult check =
      mac::checkTrace(wild.experiment->view(), sane.fitted,
                      wild.experiment->trace(), wild.result.endTime);
  EXPECT_FALSE(check.ok);
  bool ackBound = false;
  for (const mac::Violation& v : check.records) {
    ackBound = ackBound || v.axiom == "ack-bound";
  }
  EXPECT_TRUE(ackBound) << check.summary();

  // Fitting the delayed run on its own terms absorbs the delay again —
  // the measured-bounds loop closes over the net backend too.
  ASSERT_TRUE(wild.realized.measured());
  EXPECT_GT(wild.fitted.fack, sane.fitted.fack);
  const mac::CheckResult own =
      mac::checkTrace(wild.experiment->view(), wild.fitted,
                      wild.experiment->trace(), wild.result.endTime);
  EXPECT_TRUE(own.ok) << own.summary();
}

}  // namespace
}  // namespace ammb
