// End-to-end FMMB tests (Section 4): correctness on grey-zone
// topologies under benign and adversarial scheduling, both dissemination
// modes, model-variant enforcement, and the Theorem 4.1 time envelope.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::Experiment;
using core::FmmbParams;
using core::RunConfig;
using core::SchedulerKind;
namespace gen = graph::gen;
using testutil::enhParams;
using testutil::stdParams;

graph::DualGraph makeField(NodeId n, double avgDegree, std::uint64_t seed,
                           double c = 1.5) {
  Rng rng(seed);
  return gen::greyZoneField(n, avgDegree, c, 0.4, rng);
}

core::RunResult runCheckedFmmb(const graph::DualGraph& topo,
                               const core::MmbWorkload& workload,
                               const FmmbParams& params, RunConfig config,
                               bool checkAxioms = true) {
  Experiment experiment(topo, core::fmmbProtocol(params), workload,
                        config);
  const auto result = experiment.run();
  EXPECT_TRUE(result.solved) << "FMMB failed to solve";
  if (checkAxioms && result.solved) {
    const auto mac = mac::checkTrace(experiment.view(), config.mac,
                                     experiment.trace(),
                                     experiment.engine().now());
    EXPECT_TRUE(mac.ok) << mac.summary();
    const auto mmb = core::checkMmbTrace(topo, workload,
                                         experiment.engine().trace(),
                                         /*requireSolved=*/true);
    EXPECT_TRUE(mmb.ok) << (mmb.ok ? "" : mmb.violations.front());
  }
  return result;
}

TEST(Fmmb, RequiresEnhancedModel) {
  const auto topo = makeField(16, 6.0, 1);
  const auto workload = core::workloadAllAtNode(1, 0);
  RunConfig config;
  config.mac = stdParams();  // standard model: constructor must reject
  EXPECT_THROW(Experiment(topo, core::fmmbProtocol(FmmbParams::make(topo.n())),
                          workload, config),
               Error);
}

TEST(Fmmb, SolvesSingleMessageInterleaved) {
  const auto topo = makeField(32, 7.0, 2);
  const auto workload = core::workloadAllAtNode(1, 0);
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kRandom;
  const auto params = FmmbParams::make(topo.n());
  const auto result = runCheckedFmmb(topo, workload, params, config);
  EXPECT_LE(result.solveTime,
            core::fmmbBoundEnvelope(topo.g().diameter(), 1, params,
                                    config.mac));
}

TEST(Fmmb, SolvesMultiMessageInterleaved) {
  const auto topo = makeField(40, 7.0, 3);
  const auto workload = core::workloadRoundRobin(6, topo.n());
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kRandom;
  const auto params = FmmbParams::make(topo.n());
  const auto result = runCheckedFmmb(topo, workload, params, config);
  EXPECT_LE(result.solveTime,
            core::fmmbBoundEnvelope(topo.g().diameter(), 6, params,
                                    config.mac));
}

TEST(Fmmb, SolvesSequentialModeWithKnownK) {
  const auto topo = makeField(32, 7.0, 4);
  const int k = 4;
  const auto workload = core::workloadRoundRobin(k, topo.n());
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kRandom;
  const auto params = FmmbParams::makeSequential(topo.n(), k);
  runCheckedFmmb(topo, workload, params, config);
}

TEST(Fmmb, SolvesUnderAdversarialScheduler) {
  const auto topo = makeField(28, 7.0, 5);
  const auto workload = core::workloadRoundRobin(3, topo.n());
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kAdversarial;
  const auto params = FmmbParams::make(topo.n());
  // Fail fast instead of spinning if dissemination ever stalls.
  config.limits.maxTime =
      4 * core::fmmbBoundEnvelope(topo.g().diameter(), 3, params, config.mac);
  runCheckedFmmb(topo, workload, params, config);
}

TEST(Fmmb, SolvesUnderFastScheduler) {
  const auto topo = makeField(24, 7.0, 6);
  const auto workload = core::workloadAllAtNode(3, 0);
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kFast;
  const auto params = FmmbParams::make(topo.n());
  runCheckedFmmb(topo, workload, params, config);
}

TEST(Fmmb, GatherMovesEveryMessageToAnMisNode) {
  const auto topo = makeField(36, 7.0, 7);
  const auto workload = core::workloadRoundRobin(5, topo.n());
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kRandom;
  const auto params = FmmbParams::make(topo.n());
  Experiment experiment(topo, core::fmmbProtocol(params), workload,
                        config);
  ASSERT_TRUE(experiment.run().solved);
  // Post-run: every message is owned by at least one MIS node and no
  // non-MIS node still has a pending upload (Lemma 4.6).
  std::set<MsgId> owned;
  for (NodeId v = 0; v < topo.n(); ++v) {
    const auto& proc = experiment.fmmbSuite().process(v);
    if (proc.shared().isMis) {
      owned.insert(proc.shared().owned.begin(), proc.shared().owned.end());
    } else {
      EXPECT_TRUE(proc.shared().pendingUpload.empty())
          << "node " << v << " still owns undelivered uploads";
    }
  }
  EXPECT_EQ(owned.size(), 5u);
}

TEST(Fmmb, MisRolesFormValidMis) {
  const auto topo = makeField(30, 7.0, 8);
  const auto workload = core::workloadAllAtNode(2, 0);
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kRandom;
  Experiment experiment(topo,
                        core::fmmbProtocol(FmmbParams::make(topo.n())),
                        workload, config);
  ASSERT_TRUE(experiment.run().solved);
  std::vector<bool> inMis;
  for (NodeId v = 0; v < topo.n(); ++v) {
    inMis.push_back(experiment.fmmbSuite().process(v).mis().inMis());
  }
  for (const auto& [u, v] : topo.g().edges()) {
    EXPECT_FALSE(inMis[static_cast<std::size_t>(u)] &&
                 inMis[static_cast<std::size_t>(v)]);
  }
  for (NodeId v = 0; v < topo.n(); ++v) {
    if (inMis[static_cast<std::size_t>(v)]) continue;
    bool covered = false;
    for (NodeId u : topo.g().neighbors(v)) {
      covered = covered || inMis[static_cast<std::size_t>(u)];
    }
    EXPECT_TRUE(covered);
  }
}

TEST(Fmmb, SolveTimeIndependentOfFack) {
  // The whole point of FMMB: no Fack term.  Doubling Fack must not
  // change the solve time (rounds depend only on Fprog).
  const auto topo = makeField(28, 7.0, 9);
  const auto workload = core::workloadRoundRobin(4, topo.n());
  const auto params = FmmbParams::make(topo.n());
  RunConfig a;
  // SlowAck keeps the execution literally identical under different
  // Fack values (RandomScheduler's unreliable-delivery draws span
  // [bcast, ack], so its executions legitimately depend on Fack).
  a.mac = enhParams(4, 32);
  a.scheduler = SchedulerKind::kSlowAck;
  a.seed = 3;
  RunConfig b = a;
  b.mac = enhParams(4, 512);
  const auto ra =
      core::runExperiment(topo, core::fmmbProtocol(params), workload, a);
  const auto rb =
      core::runExperiment(topo, core::fmmbProtocol(params), workload, b);
  ASSERT_TRUE(ra.solved && rb.solved);
  EXPECT_EQ(ra.solveTime, rb.solveTime);
}

TEST(Fmmb, DeterministicGivenSeed) {
  const auto topo = makeField(24, 7.0, 10);
  const auto workload = core::workloadRoundRobin(3, topo.n());
  const auto params = FmmbParams::make(topo.n());
  RunConfig config;
  config.mac = enhParams(4, 64);
  config.scheduler = SchedulerKind::kRandom;
  config.seed = 17;
  config.recordTrace = false;
  const auto r1 =
      core::runExperiment(topo, core::fmmbProtocol(params), workload, config);
  const auto r2 =
      core::runExperiment(topo, core::fmmbProtocol(params), workload, config);
  ASSERT_TRUE(r1.solved && r2.solved);
  EXPECT_EQ(r1.solveTime, r2.solveTime);
  EXPECT_EQ(r1.stats.bcasts, r2.stats.bcasts);
}

}  // namespace
}  // namespace ammb
