// Property tests for the MIS subroutine (Section 4.2): independence
// and maximality must hold on grey-zone topologies across seeds and
// schedulers (its guarantees are w.h.p. over the nodes' coins, not over
// scheduler benevolence).
#include <gtest/gtest.h>

#include "core/mis.h"
#include "graph/generators.h"
#include "mac/schedulers.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb {
namespace {

namespace gen = graph::gen;
using core::FmmbParams;
using core::MisStatus;
using core::MisSuite;
using testutil::enhParams;

struct MisOutcome {
  std::vector<bool> inMis;
  std::vector<MisStatus> status;
};

MisOutcome runMis(const graph::DualGraph& topo, double c,
                  std::unique_ptr<mac::Scheduler> scheduler,
                  std::uint64_t seed, bool checkAxioms = true) {
  const auto params = FmmbParams::make(topo.n(), c);
  MisSuite suite(params);
  const auto macParams = enhParams(4, 64);
  const graph::TopologyView view(topo);
  mac::MacEngine engine(view, macParams, std::move(scheduler),
                        suite.factory(), seed, /*traceEnabled=*/checkAxioms);
  const Time roundLen = macParams.fprog + 1;
  const Time misEnd = params.misRounds() * roundLen;
  engine.run(misEnd + roundLen);
  if (checkAxioms) {
    const auto check =
        mac::checkTrace(view, macParams, engine.trace(), engine.now());
    EXPECT_TRUE(check.ok) << check.summary();
  }
  MisOutcome out;
  for (NodeId v = 0; v < topo.n(); ++v) {
    const auto& mis = suite.process(v).mis();
    out.inMis.push_back(mis.inMis());
    out.status.push_back(mis.status());
  }
  return out;
}

void expectValidMis(const graph::DualGraph& topo, const MisOutcome& out) {
  // Independence: no two G-neighbors both in the MIS.
  for (const auto& [u, v] : topo.g().edges()) {
    EXPECT_FALSE(out.inMis[static_cast<std::size_t>(u)] &&
                 out.inMis[static_cast<std::size_t>(v)])
        << "G-neighbors " << u << " and " << v << " both joined";
  }
  // Maximality: every node is in the MIS or has a G-neighbor in it.
  for (NodeId v = 0; v < topo.n(); ++v) {
    if (out.inMis[static_cast<std::size_t>(v)]) continue;
    bool covered = false;
    for (NodeId u : topo.g().neighbors(v)) {
      if (out.inMis[static_cast<std::size_t>(u)]) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "node " << v << " is uncovered";
  }
}

TEST(Mis, ValidOnGreyZoneUnitDisksAcrossSeeds) {
  Rng topoRng(31);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto topo = gen::greyZoneField(48, 7.0, 1.5, 0.4, topoRng);
    const auto out =
        runMis(topo, 1.5, std::make_unique<mac::RandomScheduler>(), seed);
    expectValidMis(topo, out);
  }
}

TEST(Mis, ValidUnderAdversarialScheduler) {
  Rng topoRng(77);
  const auto topo = gen::greyZoneField(40, 7.0, 1.5, 0.5, topoRng);
  const auto out = runMis(topo, 1.5,
                          std::make_unique<mac::AdversarialScheduler>(), 5);
  expectValidMis(topo, out);
}

TEST(Mis, ValidOnLineAndGridEmbeddings) {
  Rng rng(3);
  const auto lineTopo =
      gen::greyZoneFromPoints(gen::linePoints(30), 1.5, 0.5, rng);
  const auto out1 =
      runMis(lineTopo, 1.5, std::make_unique<mac::FastScheduler>(), 9);
  expectValidMis(lineTopo, out1);

  const auto gridTopo =
      gen::greyZoneFromPoints(gen::gridPoints(7, 5), 1.5, 0.3, rng);
  const auto out2 =
      runMis(gridTopo, 1.5, std::make_unique<mac::RandomScheduler>(), 9);
  expectValidMis(gridTopo, out2);
}

TEST(Mis, SingletonAndCompleteGraphEdgeCases) {
  // One node: it must elect itself.
  Rng rng(1);
  const auto single =
      gen::greyZoneFromPoints(gen::linePoints(1), 1.5, 0.0, rng);
  const auto out =
      runMis(single, 1.5, std::make_unique<mac::FastScheduler>(), 1);
  EXPECT_TRUE(out.inMis[0]);

  // A clique (all nodes within distance 1): exactly one node wins.
  graph::Embedding pts;
  for (int i = 0; i < 6; ++i) {
    pts.push_back({0.01 * i, 0.0});
  }
  const auto clique = gen::greyZoneFromPoints(std::move(pts), 1.5, 0.0, rng);
  const auto outClique =
      runMis(clique, 1.5, std::make_unique<mac::RandomScheduler>(), 2);
  int winners = 0;
  for (bool b : outClique.inMis) winners += b ? 1 : 0;
  EXPECT_EQ(winners, 1);
  expectValidMis(clique, outClique);
}

TEST(Mis, EveryNonMisNodeEndsPermanentlyInactive) {
  Rng topoRng(13);
  const auto topo = gen::greyZoneField(36, 7.0, 2.0, 0.3, topoRng);
  const auto out =
      runMis(topo, 2.0, std::make_unique<mac::RandomScheduler>(), 11);
  expectValidMis(topo, out);
  for (NodeId v = 0; v < topo.n(); ++v) {
    const auto s = out.status[static_cast<std::size_t>(v)];
    // After convergence a node either joined or heard a G-neighbor join.
    EXPECT_TRUE(s == MisStatus::kInMis || s == MisStatus::kPermInactive)
        << "node " << v << " ended in state " << static_cast<int>(s);
  }
}

TEST(Mis, DeterministicGivenSeed) {
  Rng topoRng(9);
  const auto topo = gen::greyZoneField(32, 7.0, 2.0, 0.3, topoRng);
  const auto a = runMis(topo, 2.0, std::make_unique<mac::RandomScheduler>(),
                        4, /*checkAxioms=*/false);
  const auto b = runMis(topo, 2.0, std::make_unique<mac::RandomScheduler>(),
                        4, /*checkAxioms=*/false);
  EXPECT_EQ(a.inMis, b.inMis);
}

}  // namespace
}  // namespace ammb
