// Time-bound assertions for BMMB: the paper's theorems hold on every
// execution our engine can produce, with the exact constants of
// Theorem 3.16 (r-restricted, G'=G as r=1) and Theorem 3.1 (arbitrary
// G').  These are the strongest correctness tests in the suite — a
// scheduler or guard bug that grants the adversary illegal power shows
// up here as a bound violation.
#include <gtest/gtest.h>

#include <tuple>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::RunConfig;
using core::SchedulerKind;
namespace gen = graph::gen;
using testutil::stdParams;

const std::vector<SchedulerKind> kAllSchedulers = {
    SchedulerKind::kFast, SchedulerKind::kRandom, SchedulerKind::kSlowAck,
    SchedulerKind::kAdversarial, SchedulerKind::kAdversarialStuffing};

// --- G' = G (r = 1): O(D Fprog + k Fack), Theorem 3.16 with r = 1 ----------

class GgBound : public ::testing::TestWithParam<
                    std::tuple<int /*n*/, int /*k*/, SchedulerKind>> {};

TEST_P(GgBound, LineRespectsTheorem316) {
  const auto [n, k, sched] = GetParam();
  const auto topo = gen::identityDual(gen::line(n));
  const int D = n - 1;
  const auto workload = core::workloadAllAtNode(k, 0);
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = sched;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  const Time bound = core::bmmbRRestrictedBound(D, k, 1, config.mac);
  EXPECT_LE(result.solveTime, bound)
      << "scheduler " << core::toString(sched);
  const auto check =
      mac::checkTrace(experiment.view(), config.mac, experiment.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GgBound,
    ::testing::Combine(::testing::Values(8, 16, 33),
                       ::testing::Values(1, 4, 9),
                       ::testing::ValuesIn(kAllSchedulers)));

// --- r-restricted G': Theorem 3.16 -------------------------------------------

class RRestrictedBound
    : public ::testing::TestWithParam<std::tuple<int /*r*/, SchedulerKind>> {};

TEST_P(RRestrictedBound, LineWithRNoiseRespectsTheorem316) {
  const auto [r, sched] = GetParam();
  Rng rng(42 + r);
  const int n = 24;
  const int k = 5;
  const auto topo = gen::withRRestrictedNoise(gen::line(n), r, 0.7, rng);
  ASSERT_TRUE(topo.isRRestricted(r));
  const int D = n - 1;
  const auto workload = core::workloadRoundRobin(k, n);
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = sched;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_LE(result.solveTime, core::bmmbRRestrictedBound(D, k, r, config.mac));
  const auto check =
      mac::checkTrace(experiment.view(), config.mac, experiment.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RRestrictedBound,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::ValuesIn(kAllSchedulers)));

// --- arbitrary G': Theorem 3.1 -----------------------------------------------

class ArbitraryBound
    : public ::testing::TestWithParam<std::tuple<int /*k*/, SchedulerKind>> {};

TEST_P(ArbitraryBound, LongRangeNoiseRespectsTheorem31) {
  const auto [k, sched] = GetParam();
  Rng rng(7);
  const int n = 20;
  const auto topo = gen::withArbitraryNoise(gen::line(n), 10, rng);
  const int D = topo.g().diameter();
  const auto workload = core::workloadRoundRobin(k, n);
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = sched;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_LE(result.solveTime, core::bmmbArbitraryBound(D, k, config.mac));
  const auto check =
      mac::checkTrace(experiment.view(), config.mac, experiment.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArbitraryBound,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::ValuesIn(kAllSchedulers)));

// --- grids under every scheduler ---------------------------------------------

TEST(BmmbBounds, GridGgBoundHoldsForAllSchedulers) {
  const auto topo = gen::identityDual(gen::grid(6, 5));
  const int D = topo.g().diameter();
  const int k = 6;
  const auto workload = core::workloadRoundRobin(k, topo.n());
  for (SchedulerKind sched : kAllSchedulers) {
    RunConfig config;
    config.mac = stdParams(3, 48);
    config.scheduler = sched;
    const auto result = core::runExperiment(topo, core::bmmbProtocol(), workload, config);
    ASSERT_TRUE(result.solved);
    EXPECT_LE(result.solveTime,
              core::bmmbRRestrictedBound(D, k, 1, config.mac))
        << core::toString(sched);
  }
}

// --- the structural insight: arbitrary >> r-restricted under adversary -------

TEST(BmmbBounds, StructureOfUnreliabilityGovernsTheDamage) {
  // The paper's discussion: the *structure*, not the quantity, of
  // unreliable links drives worst-case time.  Compare two executions
  // with the same line length, k = 2 and identical timing:
  //  (a) the Figure-2 network C, whose cross edges connect nodes that
  //      are FAR in G (different components), driven by the paper's
  //      own adversary: Theta(D Fack);
  //  (b) a single line with MANY short (2-restricted) unreliable
  //      edges under the generic adversary: O(D Fprog + 2 k Fack).
  const int D = 32;
  const auto netC = gen::lowerBoundNetworkC(D);
  core::MmbWorkload wC;
  wC.k = 2;
  wC.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};
  RunConfig cfgC;
  cfgC.mac = stdParams(2, 64);
  cfgC.scheduler = SchedulerKind::kLowerBound;
  cfgC.scheduler.lowerBoundLineLength = D;
  const auto tFar = core::runExperiment(netC, core::bmmbProtocol(), wC, cfgC);

  Rng rng(5);
  const auto local = gen::withRRestrictedNoise(gen::line(D), 2, 1.0, rng);
  RunConfig cfgLocal;
  cfgLocal.mac = stdParams(2, 64);
  cfgLocal.scheduler = SchedulerKind::kAdversarialStuffing;
  const auto tLocal =
      core::runExperiment(local, core::bmmbProtocol(),
                          core::workloadRoundRobin(2, D), cfgLocal);

  ASSERT_TRUE(tFar.solved);
  ASSERT_TRUE(tLocal.solved);
  // Network C has 2(D-1) unreliable edges; the local topology has
  // many more — yet the long-distance structure costs far more time.
  EXPECT_GE(tFar.solveTime, static_cast<Time>(D - 1) * cfgC.mac.fack);
  EXPECT_LE(tLocal.solveTime,
            core::bmmbRRestrictedBound(D - 1, 2, 2, cfgLocal.mac));
  EXPECT_GT(tFar.solveTime, 3 * tLocal.solveTime);
}

}  // namespace
}  // namespace ammb
