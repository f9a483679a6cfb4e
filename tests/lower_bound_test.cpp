// Lower-bound constructions: the Figure-2 network C adversary
// (Lemmas 3.19/3.20, Theorem 3.17) and the bridge-star choke point
// (Lemma 3.18).  Each test asserts BOTH that the adversary achieves the
// paper's delay AND that its execution is model-compliant (the trace
// checker accepts it) — an adversary that cheats proves nothing.
#include <gtest/gtest.h>

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

/// Endpoint-oriented workload on network C: m0 at a_0, m1 at b_0.
core::MmbWorkload endpointWorkload() {
  core::MmbWorkload w;
  w.k = 2;
  w.arrivals = {{0, 0}, {0, 1}};
  return w;
}

TEST(LowerBound, NetworkCDelaysBmmbByOmegaDFack) {
  for (int D : {4, 8, 16, 32}) {
    const auto topo = gen::lowerBoundNetworkC(D);
    core::MmbWorkload w;
    w.k = 2;
    w.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};  // a_0, b_0
    RunConfig config;
    config.mac = stdParams(4, 64);
    config.scheduler = SchedulerKind::kLowerBound;
    config.scheduler.lowerBoundLineLength = D;
    core::Experiment experiment(topo, core::bmmbProtocol(), w, config);
    const auto result = experiment.run();
    ASSERT_TRUE(result.solved) << "D=" << D;
    // The frontier advances one hop per Fack: (D-1) stages.
    EXPECT_GE(result.solveTime, static_cast<Time>(D - 1) * config.mac.fack)
        << "D=" << D;
    // The adversary must play by the rules.
    const auto check =
        mac::checkTrace(experiment.view(), config.mac, experiment.trace());
    EXPECT_TRUE(check.ok) << "D=" << D << ": " << check.summary();
    const auto mmb =
        core::checkMmbTrace(topo, w, experiment.engine().trace());
    EXPECT_TRUE(mmb.ok);
  }
}

TEST(LowerBound, NetworkCDelayScalesLinearlyWithD) {
  auto solveFor = [](int D) {
    const auto topo = gen::lowerBoundNetworkC(D);
    core::MmbWorkload w;
    w.k = 2;
    w.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};
    RunConfig config;
    config.mac = stdParams(4, 64);
    config.scheduler = SchedulerKind::kLowerBound;
    config.scheduler.lowerBoundLineLength = D;
    const auto result = core::runExperiment(topo, core::bmmbProtocol(), w, config);
    EXPECT_TRUE(result.solved);
    return result.solveTime;
  };
  const Time t8 = solveFor(8);
  const Time t32 = solveFor(32);
  // Quadrupling D roughly quadruples the delay (both are ~(D-1)Fack).
  EXPECT_GE(t32, 3 * t8);
}

TEST(LowerBound, WithoutCrossEdgesTheSameScheduleIsIllegal) {
  // Sanity check on the mechanism: on the same two lines with G' = G,
  // the adversary has no junk to feed the progress guard, so BMMB
  // finishes in O(D Fprog + k Fack) even under the strongest generic
  // adversary — the cross edges are what make the lower bound possible.
  const int D = 16;
  graph::Graph g(2 * D);
  for (int i = 0; i + 1 < D; ++i) {
    g.addEdge(i, i + 1);
    g.addEdge(D + i, D + i + 1);
  }
  g.finalize();
  const auto topo = gen::identityDual(std::move(g));
  core::MmbWorkload w;
  w.k = 2;
  w.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = SchedulerKind::kAdversarial;
  const auto result = core::runExperiment(topo, core::bmmbProtocol(), w, config);
  ASSERT_TRUE(result.solved);
  // Far below (D-1) Fack = 960: one Fprog per hop plus one Fack tail.
  EXPECT_LE(result.solveTime,
            core::bmmbRRestrictedBound(D - 1, 2, 1, config.mac));
}

TEST(LowerBound, BridgeStarChokesAtKFack) {
  for (int k : {4, 8, 16}) {
    const auto topo = gen::bridgeStar(k);
    // One message per leaf and one at the center (singleton assignment).
    core::MmbWorkload w;
    w.k = k;
    for (MsgId m = 0; m < k; ++m) {
      w.arrivals.push_back(core::Arrival{static_cast<NodeId>(m), m, 0});
    }
    RunConfig config;
    config.mac = stdParams(4, 64);
    config.scheduler = SchedulerKind::kSlowAck;
    core::Experiment experiment(topo, core::bmmbProtocol(), w, config);
    const auto result = experiment.run();
    ASSERT_TRUE(result.solved) << "k=" << k;
    // The center forwards k messages one Fack at a time.
    EXPECT_GE(result.solveTime, static_cast<Time>(k - 1) * config.mac.fack);
    EXPECT_LE(result.solveTime,
              static_cast<Time>(k + 1) * config.mac.fack);
    const auto check =
        mac::checkTrace(experiment.view(), config.mac, experiment.trace());
    EXPECT_TRUE(check.ok) << check.summary();
  }
}

TEST(LowerBound, NetworkCExecutionUsesUselessCrossDeliveries) {
  const int D = 12;
  const auto topo = gen::lowerBoundNetworkC(D);
  core::MmbWorkload w;
  w.k = 2;
  w.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = SchedulerKind::kLowerBound;
  config.scheduler.lowerBoundLineLength = D;
  core::Experiment experiment(topo, core::bmmbProtocol(), w, config);
  ASSERT_TRUE(experiment.run().solved);
  // Count deliveries over unreliable edges: the schedule lives on them.
  std::size_t cross = 0;
  for (const auto& inst : experiment.engine().instances()) {
    for (NodeId r : inst.deliveredTo) {
      if (topo.isUnreliableOnlyEdge(inst.sender, r)) ++cross;
    }
  }
  EXPECT_GE(cross, static_cast<std::size_t>(D));
}

TEST(LowerBound, SchedulerRequiresMatchingTopology) {
  const auto topo = gen::lowerBoundNetworkC(8);
  RunConfig config;
  config.mac = stdParams();
  config.scheduler = SchedulerKind::kLowerBound;
  config.scheduler.lowerBoundLineLength = 6;  // wrong D
  EXPECT_THROW(core::Experiment(topo, core::bmmbProtocol(),
                              endpointWorkload(), config),
               Error);
}

}  // namespace
}  // namespace ammb
