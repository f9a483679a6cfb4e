// Ablation A-mis: the MIS subroutine of Section 4.2 in isolation.
//
// Measures the empirical convergence round (the last round at which any
// node reached a permanent decision) against the paper's
// O(c^4 log^3 n) worst-case stage length, sweeping n and the grey-zone
// constant c.  The table shows (a) convergence is far below the strict
// worst case — why FmmbParams defaults to the empirical phase count —
// and (b) growth with c^2 for fixed n, the knob the paper's analysis
// charges for announcement contention.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/mis.h"
#include "graph/generators.h"

namespace {

using namespace ammb;
using core::FmmbParams;
using core::MisSuite;
namespace gen = graph::gen;

constexpr Time kFprog = 4;
constexpr Time kFack = 64;

struct MisRun {
  int convergenceRound = -1;  ///< max decidedRound over nodes
  int stageRounds = 0;        ///< configured MIS stage length
  bool valid = false;         ///< independence + maximality
};

MisRun runMis(int n, double c, std::uint64_t seed) {
  Rng rng(seed);
  const auto topo = gen::greyZoneField(n, 7.0, c, 0.4, rng);
  auto params = FmmbParams::make(topo.n(), c);
  MisSuite suite(params);
  const auto macParams = bench::enhParams(kFprog, kFack);
  const graph::TopologyView view(topo);
  mac::MacEngine engine(view, macParams,
                        std::make_unique<mac::RandomScheduler>(),
                        suite.factory(), seed, /*traceEnabled=*/false);
  const Time roundLen = macParams.fprog + 1;
  engine.run(params.misRounds() * roundLen + roundLen);

  MisRun out;
  out.stageRounds = params.misRounds();
  std::vector<bool> inMis;
  for (NodeId v = 0; v < topo.n(); ++v) {
    const auto& mis = suite.process(v).mis();
    inMis.push_back(mis.inMis());
    out.convergenceRound =
        std::max(out.convergenceRound, mis.decidedRound());
  }
  out.valid = true;
  for (const auto& [u, v] : topo.g().edges()) {
    if (inMis[static_cast<std::size_t>(u)] &&
        inMis[static_cast<std::size_t>(v)]) {
      out.valid = false;
    }
  }
  for (NodeId v = 0; v < topo.n(); ++v) {
    if (inMis[static_cast<std::size_t>(v)]) continue;
    bool covered = false;
    for (NodeId u : topo.g().neighbors(v)) {
      covered = covered || inMis[static_cast<std::size_t>(u)];
    }
    if (!covered) out.valid = false;
  }
  return out;
}

void BM_Mis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MisRun run;
  for (auto _ : state) {
    run = runMis(n, 1.5, 1);
    benchmark::DoNotOptimize(run.convergenceRound);
  }
  state.counters["convergence_round"] =
      static_cast<double>(run.convergenceRound);
  state.counters["valid"] = run.valid ? 1.0 : 0.0;
}
BENCHMARK(BM_Mis)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Unit(
    benchmark::kMillisecond);

void printTables() {
  std::vector<bench::Row> rows;
  for (int n : {32, 64, 128, 256}) {
    for (std::uint64_t seed : {1u, 2u}) {
      const MisRun run = runMis(n, 1.5, seed);
      bench::Row row;
      row.label = "MIS n=" + std::to_string(n) + " c=1.5 seed=" +
                  std::to_string(seed) +
                  (run.valid ? "" : "  [INVALID MIS]");
      row.measured = run.convergenceRound;
      // Paper worst case: phases Theta(c^2 log^2 n) of
      // Theta(c^2 log n) rounds.
      auto strict = core::FmmbParams::make(n, 1.5).strictPaperPhases();
      row.predicted = strict.misRounds();
      rows.push_back(row);
    }
  }
  for (double c : {1.5, 2.0, 3.0}) {
    const MisRun run = runMis(96, c, 3);
    bench::Row row;
    row.label = "MIS n=96 c=" + std::to_string(c).substr(0, 3) +
                (run.valid ? "" : "  [INVALID MIS]");
    row.measured = run.convergenceRound;
    auto strict = core::FmmbParams::make(96, c).strictPaperPhases();
    row.predicted = strict.misRounds();
    rows.push_back(row);
  }
  bench::printTable(
      "A-mis: convergence round (measured) vs O(c^4 log^3 n) stage "
      "length (predicted)",
      rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printTables();
  return 0;
}
