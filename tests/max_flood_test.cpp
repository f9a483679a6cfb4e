// Tests for the max-flood / leader-election extension.
#include <gtest/gtest.h>

#include "core/max_flood.h"
#include "graph/generators.h"
#include "mac/schedulers.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb {
namespace {

namespace gen = graph::gen;
using core::MaxFloodSuite;
using testutil::stdParams;

struct FloodOutcome {
  std::vector<std::int64_t> best;
  mac::EngineStats stats;
  Time endTime = 0;
};

FloodOutcome runFlood(const graph::DualGraph& topo,
                      std::unique_ptr<mac::Scheduler> scheduler,
                      std::uint64_t seed,
                      MaxFloodSuite::ValueFn values = nullptr) {
  MaxFloodSuite suite(std::move(values));
  const graph::TopologyView view(topo);
  mac::MacEngine engine(view, stdParams(4, 32), std::move(scheduler),
                        suite.factory(), seed);
  const auto status = engine.run();
  EXPECT_EQ(status, sim::RunStatus::kDrained);  // quiescence
  const auto check = mac::checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
  FloodOutcome out;
  for (NodeId v = 0; v < topo.n(); ++v) {
    out.best.push_back(suite.process(v).best());
  }
  out.stats = engine.stats();
  out.endTime = engine.now();
  return out;
}

TEST(MaxFlood, ElectsMaxIdOnLine) {
  const auto topo = gen::identityDual(gen::line(12));
  const auto out =
      runFlood(topo, std::make_unique<mac::FastScheduler>(), 1);
  for (auto b : out.best) EXPECT_EQ(b, 11);
}

TEST(MaxFlood, ElectsMaxOnEveryTopologyAndScheduler) {
  Rng topoRng(5);
  std::vector<graph::DualGraph> topologies;
  topologies.push_back(gen::identityDual(gen::grid(5, 4)));
  topologies.push_back(gen::identityDual(gen::star(8)));
  topologies.push_back(gen::withArbitraryNoise(gen::line(16), 6, topoRng));
  topologies.push_back(gen::withRRestrictedNoise(gen::ring(14), 2, 0.5,
                                                 topoRng));
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const auto& topo = topologies[t];
    for (int s = 0; s < 4; ++s) {
      std::unique_ptr<mac::Scheduler> sched;
      switch (s) {
        case 0: sched = std::make_unique<mac::FastScheduler>(); break;
        case 1: sched = std::make_unique<mac::RandomScheduler>(); break;
        case 2: sched = std::make_unique<mac::SlowAckScheduler>(); break;
        default: sched = std::make_unique<mac::AdversarialScheduler>(); break;
      }
      SCOPED_TRACE("topology " + std::to_string(t) + " scheduler " +
                   std::to_string(s));
      const auto out = runFlood(topo, std::move(sched), 3);
      for (auto b : out.best) EXPECT_EQ(b, topo.n() - 1);
    }
  }
}

TEST(MaxFlood, CustomValuesElectTheGlobalMaximum) {
  const auto topo = gen::identityDual(gen::grid(4, 4));
  // Values descend with the id: the max (1000) sits at node 0.
  const auto out = runFlood(
      topo, std::make_unique<mac::RandomScheduler>(), 2,
      [](NodeId v) { return static_cast<std::int64_t>(1000 - v); });
  for (auto b : out.best) EXPECT_EQ(b, 1000);
}

TEST(MaxFlood, PerComponentLeaders) {
  // Two disjoint lines: each component elects its own maximum.
  graph::Graph g(9);
  for (NodeId i = 0; i + 1 < 4; ++i) g.addEdge(i, i + 1);
  for (NodeId i = 4; i + 1 < 9; ++i) g.addEdge(i, i + 1);
  g.finalize();
  const auto topo = gen::identityDual(std::move(g));
  const auto out =
      runFlood(topo, std::make_unique<mac::RandomScheduler>(), 7);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(out.best[v], 3);
  for (NodeId v = 4; v < 9; ++v) EXPECT_EQ(out.best[v], 8);
}

TEST(MaxFlood, ConvergesWithinDiameterAckEpochs) {
  const int n = 24;
  const auto topo = gen::identityDual(gen::line(n));
  const auto out =
      runFlood(topo, std::make_unique<mac::SlowAckScheduler>(), 1);
  // Leader id n-1 must travel D = n-1 hops; each hop costs at most
  // 2 Fack (finish the stale broadcast, then forward).  Quiescence
  // happens within one more epoch.
  const Time fack = 32;
  EXPECT_LE(out.endTime, static_cast<Time>(2 * (n - 1) + 2) * fack);
}

TEST(MaxFlood, BroadcastCountIsBoundedByImprovements) {
  const auto topo = gen::identityDual(gen::line(16));
  const auto out =
      runFlood(topo, std::make_unique<mac::FastScheduler>(), 1);
  // Each node broadcasts once at wake plus once per improvement; on a
  // line with increasing ids node v improves at most (n-1-v) times.
  EXPECT_LE(out.stats.bcasts, 16u * 16u);
  EXPECT_GE(out.stats.bcasts, 16u);
}

TEST(MaxFlood, UnreliableLinksOnlyAccelerate) {
  // With long-range G' edges and an eager scheduler, the max can jump
  // ahead; convergence time never exceeds the G-only path.
  Rng rng(3);
  const auto sparse = gen::identityDual(gen::line(20));
  const auto noisy = gen::withArbitraryNoise(gen::line(20), 12, rng);
  const auto tSparse =
      runFlood(sparse, std::make_unique<mac::FastScheduler>(), 1).endTime;
  const auto tNoisy =
      runFlood(noisy, std::make_unique<mac::FastScheduler>(), 1).endTime;
  EXPECT_LE(tNoisy, tSparse);
}

}  // namespace
}  // namespace ammb
