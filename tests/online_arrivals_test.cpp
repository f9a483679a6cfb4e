// Online/streaming arrival coverage: ArrivalProcess contract and
// replay determinism, per-message latency metrics against a
// hand-computed fixture, streaming SolveTracker behavior, and
// end-to-end streaming runs under the adversarial schedulers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/arrival.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::Arrival;
using core::ArrivalProcess;
using core::Experiment;
using core::RunConfig;
using core::SchedulerKind;
namespace gen = graph::gen;
using testutil::stdParams;

/// Drains a process and asserts the stream contract along the way.
std::vector<Arrival> drainChecked(ArrivalProcess& process, NodeId n) {
  std::vector<Arrival> out;
  Time last = 0;
  while (const auto arrival = process.next()) {
    EXPECT_GE(arrival->at, last) << "arrival times must be nondecreasing";
    last = arrival->at;
    EXPECT_GE(arrival->node, 0);
    EXPECT_LT(arrival->node, n);
    EXPECT_GE(arrival->msg, 0);
    EXPECT_LT(arrival->msg, process.k());
    out.push_back(*arrival);
  }
  EXPECT_FALSE(process.next().has_value()) << "exhausted streams stay dry";
  EXPECT_EQ(out.size(), static_cast<std::size_t>(process.k()));
  return out;
}

void expectSameStream(const std::vector<Arrival>& a,
                      const std::vector<Arrival>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "index " << i;
    EXPECT_EQ(a[i].msg, b[i].msg) << "index " << i;
    EXPECT_EQ(a[i].at, b[i].at) << "index " << i;
  }
}

TEST(ArrivalProcess, WorkloadAdapterReplaysInTimeOrder) {
  core::MmbWorkload w;
  w.k = 3;
  w.arrivals = {{2, 0, 50}, {1, 1, 0}, {0, 2, 25}};  // deliberately unsorted
  core::WorkloadArrivalProcess process(w);
  const auto stream = drainChecked(process, 3);
  EXPECT_EQ(stream[0].msg, 1);
  EXPECT_EQ(stream[1].msg, 2);
  EXPECT_EQ(stream[2].msg, 0);
  process.reset();
  expectSameStream(stream, drainChecked(process, 3));
}

TEST(ArrivalProcess, BuildersAreSeedDeterministicAcrossReplays) {
  const int k = 32;
  const NodeId n = 20;
  const auto build = [&](int which, std::uint64_t seed)
      -> std::unique_ptr<ArrivalProcess> {
    switch (which) {
      case 0:
        return std::make_unique<core::PoissonArrivalProcess>(k, n, 12.5, seed);
      case 1:
        return std::make_unique<core::BurstyArrivalProcess>(k, n, 5, 40, seed);
      default:
        return std::make_unique<core::StaggeredArrivalProcess>(k, n, 4, 30);
    }
  };
  for (int which : {0, 1, 2}) {
    SCOPED_TRACE("process kind " + std::to_string(which));
    auto p1 = build(which, 7);
    auto p2 = build(which, 7);
    const auto s1 = drainChecked(*p1, n);
    expectSameStream(s1, drainChecked(*p2, n));  // same args, same stream
    p1->reset();
    expectSameStream(s1, drainChecked(*p1, n));  // reset() replays
  }
  // A different seed virtually always moves some random arrival.
  auto pa = build(0, 7);
  auto pb = build(0, 8);
  const auto sa = drainChecked(*pa, n);
  const auto sb = drainChecked(*pb, n);
  bool differs = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    differs = differs || sa[i].node != sb[i].node || sa[i].at != sb[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalProcess, StaggeredSpreadsSourcesAndPhases) {
  core::StaggeredArrivalProcess process(8, 16, 4, 40);
  const auto stream = drainChecked(process, 16);
  // 4 sources at nodes 0, 4, 8, 12; two messages each; phase 10.
  EXPECT_EQ(stream[0].node, 0);
  EXPECT_EQ(stream[0].at, 0);
  EXPECT_EQ(stream[1].node, 4);
  EXPECT_EQ(stream[1].at, 10);
  EXPECT_EQ(stream[2].node, 8);
  EXPECT_EQ(stream[2].at, 20);
  EXPECT_EQ(stream[3].node, 12);
  EXPECT_EQ(stream[3].at, 30);
  EXPECT_EQ(stream[4].node, 0);
  EXPECT_EQ(stream[4].at, 40);
}

TEST(ArrivalProcess, ValidatesItsArguments) {
  EXPECT_THROW(core::PoissonArrivalProcess(0, 4, 1.0, 1), Error);
  EXPECT_THROW(core::PoissonArrivalProcess(1, 0, 1.0, 1), Error);
  EXPECT_THROW(core::PoissonArrivalProcess(1, 4, -1.0, 1), Error);
  EXPECT_THROW(core::BurstyArrivalProcess(4, 4, 0, 10, 1), Error);
  EXPECT_THROW(core::BurstyArrivalProcess(4, 4, 2, -1, 1), Error);
  EXPECT_THROW(core::StaggeredArrivalProcess(4, 4, 0, 10), Error);
  EXPECT_THROW(core::StaggeredArrivalProcess(4, 4, 5, 10), Error);
}

TEST(MessageMetrics, MatchHandComputedLineFixture) {
  // line(4), fast scheduler (one tick per hop), two messages at node 0
  // far apart in time: each floods the line in exactly 3 ticks.
  //   msg 0 arrives t=0,   last required delivery t=3   -> latency 3
  //   msg 1 arrives t=100, last required delivery t=103 -> latency 3
  const auto topo = gen::identityDual(gen::line(4));
  core::MmbWorkload w;
  w.k = 2;
  w.arrivals = {{0, 0, 0}, {0, 1, 100}};
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kFast;
  Experiment experiment(topo, core::bmmbProtocol(), w, config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.solveTime, 103);

  const core::MessageMetrics& m = result.messages;
  ASSERT_EQ(m.perMessage.size(), 2u);
  EXPECT_EQ(m.arrived, 2u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.perMessage[0].arriveAt, 0);
  EXPECT_EQ(m.perMessage[0].completeAt, 3);
  EXPECT_EQ(m.perMessage[0].latency(), 3);
  EXPECT_EQ(m.perMessage[1].arriveAt, 100);
  EXPECT_EQ(m.perMessage[1].completeAt, 103);
  EXPECT_EQ(m.perMessage[1].latency(), 3);
  EXPECT_EQ(m.p50Latency, 3);
  EXPECT_EQ(m.p95Latency, 3);
  EXPECT_EQ(m.maxLatency, 3);
  EXPECT_DOUBLE_EQ(m.meanLatency, 3.0);
}

TEST(MessageMetrics, TruncatedRunsReportPartialCompletion) {
  const auto topo = gen::identityDual(gen::line(30));
  core::MmbWorkload w;
  w.k = 2;
  w.arrivals = {{0, 0, 0}, {0, 1, 5'000}};  // far beyond the time limit
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = SchedulerKind::kSlowAck;
  config.limits.maxTime = 1'000;  // enough for msg 0, not for msg 1
  const auto result =
      core::runExperiment(topo, core::bmmbProtocol(), w, config);
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.messages.arrived, 1u);
  EXPECT_EQ(result.messages.completed, 1u);
  EXPECT_TRUE(result.messages.perMessage[0].completed());
  EXPECT_FALSE(result.messages.perMessage[1].completed());
  EXPECT_EQ(result.messages.perMessage[1].arriveAt, kTimeNever);
}

TEST(SolveTracker, StreamingRegistersRequirementsPerArrival) {
  const auto topo = gen::identityDual(gen::line(3));
  core::SolveTracker tracker(topo, /*k=*/1);
  EXPECT_EQ(tracker.remaining(), 0);
  EXPECT_FALSE(tracker.solved());
  tracker.onArrive(0, 0, 5);
  EXPECT_EQ(tracker.remaining(), 3);
  EXPECT_EQ(tracker.arrivedMessages(), 1);
  tracker.onDeliver(0, 0, 5);
  tracker.onDeliver(1, 0, 7);
  EXPECT_FALSE(tracker.solved());
  tracker.onDeliver(2, 0, 9);
  // All registered requirements are met, but the stream has not been
  // declared exhausted — a later arrival could still add requirements.
  EXPECT_FALSE(tracker.solved());
  tracker.markArrivalsComplete(9);
  ASSERT_TRUE(tracker.solved());
  EXPECT_EQ(tracker.solveTime(), 9);
  const auto metrics = tracker.metrics();
  EXPECT_EQ(metrics.perMessage[0].arriveAt, 5);
  EXPECT_EQ(metrics.perMessage[0].completeAt, 9);
  EXPECT_EQ(metrics.maxLatency, 4);
  // A later duplicate arrival whose requirements are all met already
  // neither reopens the problem nor disturbs the metrics.
  tracker.onArrive(2, 0, 11);
  EXPECT_TRUE(tracker.solved());
  EXPECT_EQ(tracker.metrics().perMessage[0].completeAt, 9);
  // Out-of-range observations are rejected.
  EXPECT_THROW(tracker.onArrive(3, 0, 1), Error);
  EXPECT_THROW(tracker.onArrive(0, 1, 1), Error);
}

TEST(OnlineArrivals, LateRearrivalInAnotherComponentDefersSolve) {
  // Regression: message 0 arrives at t=0 in component {0,1} and again
  // at t=500 in component {2,3}.  A stopOnSolve run must not declare
  // the problem solved after the first component's deliveries — the
  // pending stream still owes requirements to the second one.
  graph::Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  g.finalize();
  const auto topo = gen::identityDual(std::move(g));
  core::MmbWorkload w;
  w.k = 1;
  w.arrivals = {{0, 0, 0}, {2, 0, 500}};
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kFast;
  Experiment experiment(topo, core::bmmbProtocol(), w, config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_GE(result.solveTime, 500);
  const auto mmb = core::checkMmbTrace(topo, w, experiment.engine().trace());
  EXPECT_TRUE(mmb.ok) << (mmb.ok ? "" : mmb.violations.front());
}

TEST(OnlineArrivals, StreamingSolvesUnderAdversarialSchedulers) {
  Rng topoRng(13);
  const auto topo = gen::withArbitraryNoise(gen::grid(5, 4), 8, topoRng);
  for (SchedulerKind sched :
       {SchedulerKind::kAdversarial, SchedulerKind::kAdversarialStuffing}) {
    SCOPED_TRACE(core::toString(sched));
    core::PoissonArrivalProcess arrivals(6, topo.n(), 25.0, 11);
    RunConfig config;
    config.mac = stdParams(4, 48);
    config.scheduler = sched;
    Experiment experiment(topo, core::bmmbProtocol(), arrivals, config);
    const auto result = experiment.run();
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.messages.completed, 6u);
    EXPECT_GT(result.messages.maxLatency, 0);
    EXPECT_LE(result.messages.p50Latency, result.messages.p95Latency);
    EXPECT_LE(result.messages.p95Latency, result.messages.maxLatency);
    // The adversary must play by the rules even with online arrivals.
    const auto macCheck =
        mac::checkTrace(experiment.view(), config.mac, experiment.trace());
    EXPECT_TRUE(macCheck.ok) << macCheck.summary();
    const auto workload = core::materializeWorkload(arrivals);
    const auto mmbCheck =
        core::checkMmbTrace(topo, workload, experiment.engine().trace());
    EXPECT_TRUE(mmbCheck.ok)
        << (mmbCheck.ok ? "" : mmbCheck.violations.front());
  }
}

TEST(OnlineArrivals, StreamedAndEagerWorkloadsAgree) {
  // The same arrival set injected lazily (stream) and eagerly
  // (pre-materialized vector) produces the same execution whenever
  // arrivals cannot tie with in-flight protocol events — here the
  // batch gap (5000 ticks) dwarfs the per-batch quiesce time
  // (~(D + k) Fack = 350), so every batch lands on an idle network.
  const auto topo = gen::identityDual(gen::grid(4, 4));
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kRandom;
  config.recordTrace = false;
  core::BurstyArrivalProcess stream(8, topo.n(), 3, 5000, 21);
  const auto eager = core::materializeWorkload(stream);
  const auto viaStream =
      core::runExperiment(topo, core::bmmbProtocol(), stream, config);
  const auto viaVector =
      core::runExperiment(topo, core::bmmbProtocol(), eager, config);
  ASSERT_TRUE(viaStream.solved && viaVector.solved);
  EXPECT_EQ(viaStream.solveTime, viaVector.solveTime);
  EXPECT_EQ(viaStream.stats.rcvs, viaVector.stats.rcvs);
  EXPECT_EQ(viaStream.messages.p95Latency, viaVector.messages.p95Latency);
}

}  // namespace
}  // namespace ammb
