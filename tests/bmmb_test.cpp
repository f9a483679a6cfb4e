// BMMB correctness across topologies, schedulers, workloads and seeds.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"

namespace ammb {
namespace {

using core::Experiment;
using core::MmbWorkload;
using core::RunConfig;
using core::RunResult;
using core::SchedulerKind;
using graph::DualGraph;
namespace gen = graph::gen;

mac::MacParams stdParams(Time fprog = 4, Time fack = 32) {
  mac::MacParams p;
  p.fprog = fprog;
  p.fack = fack;
  p.variant = mac::ModelVariant::kStandard;
  return p;
}

/// Runs BMMB and asserts: solved, MAC axioms hold, MMB axioms hold.
RunResult runChecked(
    const DualGraph& topo, const MmbWorkload& workload, RunConfig config,
    core::QueueDiscipline discipline = core::QueueDiscipline::kFifo) {
  Experiment experiment(topo, core::bmmbProtocol(discipline), workload,
                        config);
  const RunResult result = experiment.run();
  EXPECT_TRUE(result.solved) << "BMMB failed to solve MMB";
  const auto macCheck =
      mac::checkTrace(experiment.view(), config.mac, experiment.trace());
  EXPECT_TRUE(macCheck.ok) << macCheck.summary();
  const auto mmbCheck =
      core::checkMmbTrace(topo, workload, experiment.engine().trace());
  EXPECT_TRUE(mmbCheck.ok) << (mmbCheck.ok ? "" : mmbCheck.violations.front());
  return result;
}

TEST(Bmmb, SingleMessageOnLineFastScheduler) {
  const auto topo = gen::identityDual(gen::line(10));
  const auto workload = core::workloadAllAtNode(1, 0);
  RunConfig config;
  config.mac = stdParams();
  config.scheduler = SchedulerKind::kFast;
  const auto result = runChecked(topo, workload, config);
  // FastScheduler delivers in 1 tick per hop; 9 hops.
  EXPECT_EQ(result.solveTime, 9);
}

TEST(Bmmb, SolvesOnEveryTopologySchedulerSeedCell) {
  Rng topoRng(7);
  const std::vector<DualGraph> topologies = [&] {
    std::vector<DualGraph> out;
    out.push_back(gen::identityDual(gen::line(12)));
    out.push_back(gen::identityDual(gen::grid(4, 4)));
    out.push_back(gen::identityDual(gen::star(9)));
    out.push_back(gen::withRRestrictedNoise(gen::grid(5, 3), 2, 0.5, topoRng));
    out.push_back(gen::withArbitraryNoise(gen::line(14), 6, topoRng));
    return out;
  }();
  const std::vector<SchedulerKind> schedulers = {
      SchedulerKind::kFast, SchedulerKind::kRandom, SchedulerKind::kSlowAck,
      SchedulerKind::kAdversarial, SchedulerKind::kAdversarialStuffing};
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    for (SchedulerKind s : schedulers) {
      for (std::uint64_t seed : {1u, 2u}) {
        RunConfig config;
        config.mac = stdParams();
        config.scheduler = s;
        config.seed = seed;
        const auto workload =
            core::workloadRoundRobin(4, topologies[t].n());
        SCOPED_TRACE("topology " + std::to_string(t) + " scheduler " +
                     core::toString(s) + " seed " + std::to_string(seed));
        runChecked(topologies[t], workload, config);
      }
    }
  }
}

TEST(Bmmb, DisconnectedGraphSolvesPerComponent) {
  // Two disjoint lines; messages only need their own component.
  graph::Graph g(8);
  for (NodeId i = 0; i + 1 < 4; ++i) g.addEdge(i, i + 1);
  for (NodeId i = 4; i + 1 < 8; ++i) g.addEdge(i, i + 1);
  g.finalize();
  const auto topo = gen::identityDual(std::move(g));
  MmbWorkload workload;
  workload.k = 2;
  workload.arrivals = {{0, 0}, {4, 1}};
  RunConfig config;
  config.mac = stdParams();
  config.scheduler = SchedulerKind::kRandom;
  runChecked(topo, workload, config);
}

TEST(Bmmb, DuplicateSuppression) {
  const auto topo = gen::identityDual(gen::ring(6));
  const auto workload = core::workloadAllAtNode(3, 0);
  RunConfig config;
  config.mac = stdParams();
  config.scheduler = SchedulerKind::kFast;
  config.limits.stopOnSolve = false;  // drain all queues before inspecting
  Experiment experiment(topo, core::bmmbProtocol(), workload, config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  // Each node broadcasts each message exactly once: 6 nodes * 3 msgs.
  EXPECT_EQ(result.stats.bcasts, 18u);
  for (NodeId v = 0; v < topo.n(); ++v) {
    EXPECT_EQ(experiment.bmmbSuite().process(v).received().size(), 3u);
    EXPECT_EQ(experiment.bmmbSuite().process(v).sent().size(), 3u);
  }
}

TEST(Bmmb, MultipleMessagesAtOneNodeKeepFifoOrder) {
  const auto topo = gen::identityDual(gen::line(3));
  const auto workload = core::workloadAllAtNode(5, 0);
  RunConfig config;
  config.mac = stdParams();
  config.scheduler = SchedulerKind::kSlowAck;
  Experiment experiment(topo, core::bmmbProtocol(), workload, config);
  ASSERT_TRUE(experiment.run().solved);
  // Messages arrive in id order at node 0, so acks happen in id order:
  // the sent set grows in FIFO order.  Verify via trace deliver order
  // at the far end of the line.
  std::vector<MsgId> deliveredAtEnd;
  for (const auto& rec : experiment.engine().trace().records()) {
    if (rec.kind == sim::TraceKind::kDeliver && rec.node == 2) {
      deliveredAtEnd.push_back(rec.msg);
    }
  }
  ASSERT_EQ(deliveredAtEnd.size(), 5u);
  EXPECT_TRUE(std::is_sorted(deliveredAtEnd.begin(), deliveredAtEnd.end()));
}

TEST(Bmmb, LifoAndRandomDisciplinesStillSolve) {
  Rng topoRng(21);
  const auto topo = gen::withArbitraryNoise(gen::line(10), 5, topoRng);
  const auto workload = core::workloadRoundRobin(5, topo.n());
  for (auto discipline : {core::QueueDiscipline::kLifo,
                          core::QueueDiscipline::kRandom}) {
    RunConfig config;
    config.mac = stdParams();
    config.scheduler = SchedulerKind::kAdversarial;
    runChecked(topo, workload, config, discipline);
  }
}

TEST(Bmmb, OnlineArrivalsAreDisseminated) {
  const auto topo = gen::identityDual(gen::line(8));
  MmbWorkload workload;
  workload.k = 3;
  workload.arrivals = {{0, 0}, {3, 1}, {7, 2}};
  RunConfig config;
  config.mac = stdParams();
  config.scheduler = SchedulerKind::kRandom;
  Experiment experiment(topo, core::bmmbProtocol(), workload, config);
  // Two extra messages arrive online (the generalization of Section 2).
  experiment.engine().injectArriveAt(5, 1, 40);  // duplicate id is a no-op
  const auto result = experiment.run();
  EXPECT_TRUE(result.solved);
}

TEST(Bmmb, DeterministicGivenSeed) {
  Rng topoRng(5);
  const auto topo = gen::withArbitraryNoise(gen::grid(4, 4), 8, topoRng);
  const auto workload = core::workloadRoundRobin(6, topo.n());
  RunConfig config;
  config.mac = stdParams();
  config.scheduler = SchedulerKind::kRandom;
  config.seed = 99;
  const auto r1 =
      core::runExperiment(topo, core::bmmbProtocol(), workload, config);
  const auto r2 =
      core::runExperiment(topo, core::bmmbProtocol(), workload, config);
  EXPECT_EQ(r1.solveTime, r2.solveTime);
  EXPECT_EQ(r1.stats.bcasts, r2.stats.bcasts);
  EXPECT_EQ(r1.stats.rcvs, r2.stats.rcvs);
  config.seed = 100;
  const auto r3 =
      core::runExperiment(topo, core::bmmbProtocol(), workload, config);
  // A different seed virtually always changes the random schedule.
  EXPECT_NE(r1.stats.rcvs, r3.stats.rcvs);
}

}  // namespace
}  // namespace ammb
