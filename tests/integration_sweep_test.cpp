// Broad cross-module integration sweep: BMMB on every structured
// topology family x workload shape x scheduler, with full axiom and
// problem-level validation on each cell.  This is the suite's safety
// net against regressions anywhere in the stack (graph generators,
// engine, guard, schedulers, protocol, checkers).
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

enum class Family { kLine, kRing, kGrid, kTree, kStar, kGreyField };
enum class Shape { kAllAtOne, kRoundRobin, kRandomNodes, kOnline };

graph::DualGraph makeTopology(Family family, std::uint64_t seed) {
  Rng rng(seed * 31 + 7);
  switch (family) {
    case Family::kLine:
      return gen::withRRestrictedNoise(gen::line(18), 2, 0.5, rng);
    case Family::kRing:
      return gen::withArbitraryNoise(gen::ring(16), 5, rng);
    case Family::kGrid:
      return gen::identityDual(gen::grid(5, 4));
    case Family::kTree:
      return gen::withArbitraryNoise(gen::randomTree(20, rng), 6, rng);
    case Family::kStar:
      return gen::identityDual(gen::star(12));
    case Family::kGreyField:
      return gen::greyZoneField(24, 7.0, 1.5, 0.4, rng);
  }
  throw Error("unreachable");
}

core::MmbWorkload makeWorkload(Shape shape, NodeId n, std::uint64_t seed) {
  Rng rng(seed * 13 + 3);
  switch (shape) {
    case Shape::kAllAtOne: return core::workloadAllAtNode(4, 0);
    case Shape::kRoundRobin: return core::workloadRoundRobin(4, n);
    case Shape::kRandomNodes: return core::workloadRandom(4, n, rng);
    case Shape::kOnline: return core::workloadOnline(4, n, 30, rng);
  }
  throw Error("unreachable");
}

class BmmbIntegration
    : public ::testing::TestWithParam<
          std::tuple<Family, Shape, SchedulerKind>> {};

TEST_P(BmmbIntegration, SolvesAndSatisfiesEveryAxiom) {
  const auto [family, shape, sched] = GetParam();
  const auto topo = makeTopology(family, 1);
  const auto workload = makeWorkload(shape, topo.n(), 1);
  RunConfig config;
  config.mac = stdParams(4, 48);
  config.scheduler = sched;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  const auto macCheck =
      mac::checkTrace(experiment.view(), config.mac, experiment.trace());
  EXPECT_TRUE(macCheck.ok) << macCheck.summary();
  const auto mmbCheck =
      core::checkMmbTrace(topo, workload, experiment.engine().trace());
  EXPECT_TRUE(mmbCheck.ok)
      << (mmbCheck.ok ? "" : mmbCheck.violations.front());
  // Generic sanity: solve time respects the universal Theorem 3.1
  // bound whenever the topology is G-connected and arrivals are at
  // t=0 (online workloads shift by the last arrival).
  if (topo.g().connected() && shape != Shape::kOnline) {
    EXPECT_LE(result.solveTime,
              core::bmmbArbitraryBound(topo.g().diameter(), workload.k,
                                       config.mac));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BmmbIntegration,
    ::testing::Combine(
        ::testing::Values(Family::kLine, Family::kRing, Family::kGrid,
                          Family::kTree, Family::kStar, Family::kGreyField),
        ::testing::Values(Shape::kAllAtOne, Shape::kRoundRobin,
                          Shape::kRandomNodes, Shape::kOnline),
        ::testing::Values(SchedulerKind::kFast, SchedulerKind::kRandom,
                          SchedulerKind::kSlowAck,
                          SchedulerKind::kAdversarial)));

}  // namespace
}  // namespace ammb
