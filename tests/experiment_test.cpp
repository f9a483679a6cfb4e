// Tests for the experiment harness: bound formulas, scheduler factory,
// the ProtocolSpec tagged union, run control, and the online-arrival
// MMB generalization end to end.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;
using core::SchedulerKind;
namespace gen = graph::gen;
using testutil::enhParams;
using testutil::stdParams;

TEST(BoundFormulas, MatchTheoremExpressions) {
  mac::MacParams p;
  p.fprog = 3;
  p.fack = 50;
  // Theorem 3.16: (D + (r+1)k - 2) Fprog + r (k-1) Fack.
  EXPECT_EQ(core::bmmbRRestrictedBound(10, 4, 2, p),
            (10 + 3 * 4 - 2) * 3 + 2 * 3 * 50);
  // r = 1, k = 1 degenerates to D * Fprog.
  EXPECT_EQ(core::bmmbRRestrictedBound(10, 1, 1, p), 10 * 3);
  // Theorem 3.1: (D + k) Fack.
  EXPECT_EQ(core::bmmbArbitraryBound(10, 4, p), 14 * 50);
  EXPECT_THROW(core::bmmbRRestrictedBound(-1, 1, 1, p), Error);
  EXPECT_THROW(core::bmmbArbitraryBound(1, 0, p), Error);
}

TEST(BoundFormulas, FmmbEnvelopeGrowsInEachParameter) {
  const auto p = enhParams(4, 64);
  const auto f = core::FmmbParams::make(64);
  const Time base = core::fmmbBoundEnvelope(10, 4, f, p);
  EXPECT_GT(core::fmmbBoundEnvelope(20, 4, f, p), base);
  EXPECT_GT(core::fmmbBoundEnvelope(10, 8, f, p), base);
}

TEST(SchedulerFactory, ProducesEveryKind) {
  for (SchedulerKind kind :
       {SchedulerKind::kFast, SchedulerKind::kRandom, SchedulerKind::kSlowAck,
        SchedulerKind::kAdversarial, SchedulerKind::kAdversarialStuffing}) {
    EXPECT_NE(core::makeScheduler(kind), nullptr);
    EXPECT_FALSE(core::toString(kind).empty());
  }
  EXPECT_NE(core::makeScheduler(SchedulerKind::kLowerBound, 8), nullptr);
}

TEST(ProtocolSpec, TaggedUnionCarriesTheRightKnobs) {
  const core::ProtocolSpec bmmb =
      core::bmmbProtocol(core::QueueDiscipline::kLifo);
  EXPECT_EQ(bmmb.kind(), ProtocolKind::kBmmb);
  EXPECT_EQ(bmmb.bmmb().discipline, core::QueueDiscipline::kLifo);
  EXPECT_THROW(bmmb.fmmb(), Error);

  const core::ProtocolSpec fmmb =
      core::fmmbProtocol(core::FmmbParams::make(32));
  EXPECT_EQ(fmmb.kind(), ProtocolKind::kFmmb);
  EXPECT_EQ(fmmb.fmmb().params.logn, 5);
  EXPECT_THROW(fmmb.bmmb(), Error);

  // Default-constructed: BMMB with the paper's FIFO discipline.
  const core::ProtocolSpec def;
  EXPECT_EQ(def.kind(), ProtocolKind::kBmmb);
  EXPECT_EQ(def.bmmb().discipline, core::QueueDiscipline::kFifo);

  EXPECT_EQ(core::toString(ProtocolKind::kBmmb), "bmmb");
  EXPECT_EQ(core::toString(ProtocolKind::kFmmb), "fmmb");
}

TEST(ProtocolSpec, ExperimentGuardsSuiteAccessors) {
  const auto topo = gen::identityDual(gen::line(4));
  RunConfig config;
  config.mac = stdParams(4, 32);
  Experiment experiment(topo, core::bmmbProtocol(),
                        core::workloadAllAtNode(1, 0), config);
  EXPECT_EQ(experiment.protocol(), ProtocolKind::kBmmb);
  EXPECT_NO_THROW(experiment.bmmbSuite());
  EXPECT_THROW(experiment.fmmbSuite(), Error);
}

TEST(RunControl, MaxTimeTruncatesUnsolvedRuns) {
  const auto topo = gen::identityDual(gen::line(40));
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = SchedulerKind::kSlowAck;
  config.limits.maxTime = 10;  // far too short
  const auto result = core::runExperiment(topo, core::bmmbProtocol(),
                                          core::workloadAllAtNode(3, 0),
                                          config);
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.solveTime, kTimeNever);
  EXPECT_EQ(result.status, sim::RunStatus::kTimeLimit);
}

TEST(RunControl, MacParamsAreValidated) {
  const auto topo = gen::identityDual(gen::line(4));
  RunConfig config;
  config.mac.fprog = 8;
  config.mac.fack = 4;  // fack < fprog: invalid
  EXPECT_THROW(core::runExperiment(topo, core::bmmbProtocol(),
                                   core::workloadAllAtNode(1, 0), config),
               Error);
}

TEST(RunControl, FmmbRequiresEnhancedModel) {
  const auto topo = gen::identityDual(gen::line(4));
  RunConfig config;
  config.mac = stdParams(4, 32);  // standard model: must reject
  EXPECT_THROW(core::runExperiment(
                   topo, core::fmmbProtocol(core::FmmbParams::make(topo.n())),
                   core::workloadAllAtNode(1, 0), config),
               Error);
}

TEST(OnlineArrivals, BmmbSolvesStaggeredWorkload) {
  const auto topo = gen::identityDual(gen::grid(5, 4));
  Rng rng(3);
  const auto workload = core::workloadOnline(6, topo.n(), /*interval=*/50,
                                             rng);
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kRandom;
  Experiment experiment(topo, core::bmmbProtocol(), workload, config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  // The last message arrives at t=250; solving must come later.
  EXPECT_GE(result.solveTime, 250);
  const auto mac =
      mac::checkTrace(experiment.view(), config.mac, experiment.trace());
  EXPECT_TRUE(mac.ok) << mac.summary();
  const auto mmb =
      core::checkMmbTrace(topo, workload, experiment.engine().trace());
  EXPECT_TRUE(mmb.ok);
}

TEST(OnlineArrivals, FmmbHandlesArrivalsAfterTheMisStage) {
  Rng topoRng(8);
  const auto topo = gen::greyZoneField(24, 7.0, 1.5, 0.4, topoRng);
  const auto params = core::FmmbParams::make(topo.n());
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kRandom;
  // Two messages at t=0, one injected deep into the dissemination
  // stage (after the MIS fixed roles).
  core::MmbWorkload workload;
  workload.k = 3;
  const Time late =
      (params.misRounds() + 60) * (config.mac.fprog + 1);
  workload.arrivals = {{0, 0, 0}, {5, 1, 0}, {9, 2, late}};
  Experiment experiment(topo, core::fmmbProtocol(params), workload, config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_GE(result.solveTime, late);
  const auto mmb =
      core::checkMmbTrace(topo, workload, experiment.engine().trace());
  EXPECT_TRUE(mmb.ok);
}

TEST(OnlineArrivals, WorkloadBuilderSpacing) {
  Rng rng(1);
  const auto w = core::workloadOnline(5, 10, 7, rng);
  ASSERT_EQ(w.arrivals.size(), 5u);
  for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
    EXPECT_EQ(w.arrivals[i].at, static_cast<Time>(7 * i));
  }
  EXPECT_THROW(core::workloadOnline(3, 10, -1, rng), Error);
}

TEST(Experiment, StatsAreConsistent) {
  const auto topo = gen::identityDual(gen::ring(8));
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kFast;
  config.limits.stopOnSolve = false;
  Experiment experiment(topo, core::bmmbProtocol(),
                        core::workloadAllAtNode(2, 0), config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.stats.bcasts, result.stats.acks);  // all terminated
  EXPECT_EQ(result.stats.aborts, 0u);
  EXPECT_EQ(result.stats.arrives, 2u);
  EXPECT_EQ(result.stats.delivers, 16u);  // 8 nodes x 2 messages
  // Every message arrived and completed; the metrics agree.
  EXPECT_EQ(result.messages.arrived, 2u);
  EXPECT_EQ(result.messages.completed, 2u);
  EXPECT_EQ(result.messages.maxLatency, result.solveTime);
}

TEST(Experiment, TracerCanBeDisabled) {
  const auto topo = gen::identityDual(gen::line(6));
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kRandom;
  config.recordTrace = false;
  Experiment experiment(topo, core::bmmbProtocol(),
                        core::workloadAllAtNode(2, 0), config);
  ASSERT_TRUE(experiment.run().solved);
  EXPECT_EQ(experiment.engine().trace().size(), 0u);
  EXPECT_THROW(
      mac::checkTrace(experiment.view(), config.mac, experiment.trace()),
      Error);
}

TEST(Experiment, SeedSweepIsPerSeedDeterministic) {
  const auto topo = gen::identityDual(gen::grid(4, 4));
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kRandom;
  config.recordTrace = false;
  const core::ArrivalFactory factory = [&topo](std::uint64_t seed) {
    return std::make_unique<core::PoissonArrivalProcess>(4, topo.n(), 20.0,
                                                         seed);
  };
  const auto a = core::runSeedSweep(topo, core::bmmbProtocol(), factory,
                                    config, 1, 5);
  const auto b = core::runSeedSweep(topo, core::bmmbProtocol(), factory,
                                    config, 1, 5);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].solved);
    EXPECT_EQ(a[i].solveTime, b[i].solveTime);
    EXPECT_EQ(a[i].stats.rcvs, b[i].stats.rcvs);
    EXPECT_EQ(a[i].messages.p95Latency, b[i].messages.p95Latency);
  }
}

}  // namespace
}  // namespace ammb
