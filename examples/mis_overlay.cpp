// MIS + overlay structure on a sensor field (Section 4.2 / 4.4).
//
// Runs the standalone MIS subroutine on a grey-zone unit-disk network,
// prints an ASCII map of the field (MIS nodes as '#', covered nodes as
// '.'), and reports the overlay graph H = (S, E_S) that FMMB's spread
// stage broadcasts over: MIS nodes within 3 G-hops are H-neighbors.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/mis.h"
#include "graph/generators.h"
#include "mac/schedulers.h"

int main() {
  using namespace ammb;

  Rng topoRng(4242);
  const auto field = graph::gen::greyZoneField(72, 7.0, 1.5, 0.4, topoRng);
  const auto params = core::FmmbParams::make(field.n(), 1.5);

  core::MisSuite suite(params);
  mac::MacParams macParams;
  macParams.fprog = 4;
  macParams.fack = 64;
  macParams.variant = mac::ModelVariant::kEnhanced;
  const graph::TopologyView view(field);
  mac::MacEngine engine(view, macParams,
                        std::make_unique<mac::RandomScheduler>(),
                        suite.factory(), 7, /*traceEnabled=*/false);
  const Time roundLen = macParams.fprog + 1;
  engine.run(params.misRounds() * roundLen + roundLen);

  std::vector<bool> inMis;
  int misSize = 0;
  int lastDecision = 0;
  for (NodeId v = 0; v < field.n(); ++v) {
    const auto& mis = suite.process(v).mis();
    inMis.push_back(mis.inMis());
    misSize += mis.inMis() ? 1 : 0;
    lastDecision = std::max(lastDecision, mis.decidedRound());
  }
  std::printf("field: %d nodes, diameter %d\n", field.n(),
              field.g().diameter());
  std::printf("MIS: %d members; last node decided in round %d of %d\n\n",
              misSize, lastDecision, params.misRounds());

  // ASCII map: bucket the embedding into a character grid.
  const auto& points = field.embedding().value();
  double maxX = 0;
  double maxY = 0;
  for (const auto& p : points) {
    maxX = std::max(maxX, p.x);
    maxY = std::max(maxY, p.y);
  }
  const int cols = 48;
  const int rows = 20;
  std::vector<std::string> canvas(rows, std::string(cols, ' '));
  for (NodeId v = 0; v < field.n(); ++v) {
    const auto& p = points[static_cast<std::size_t>(v)];
    const int x = std::min(cols - 1, static_cast<int>(p.x / (maxX + 1e-9) *
                                                      cols));
    const int y = std::min(rows - 1, static_cast<int>(p.y / (maxY + 1e-9) *
                                                      rows));
    canvas[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] =
        inMis[static_cast<std::size_t>(v)] ? '#' : '.';
  }
  std::printf("map ('#' = MIS member, '.' = covered node):\n");
  for (const auto& line : canvas) std::printf("  |%s|\n", line.c_str());

  // The overlay H: MIS nodes within 3 G-hops.
  const auto g3 = field.g().power(3);
  int overlayEdges = 0;
  int maxDegree = 0;
  std::vector<NodeId> misNodes;
  for (NodeId v = 0; v < field.n(); ++v) {
    if (inMis[static_cast<std::size_t>(v)]) misNodes.push_back(v);
  }
  for (std::size_t i = 0; i < misNodes.size(); ++i) {
    int degree = 0;
    for (std::size_t j = 0; j < misNodes.size(); ++j) {
      if (i != j && g3.hasEdge(misNodes[i], misNodes[j])) ++degree;
    }
    overlayEdges += degree;
    maxDegree = std::max(maxDegree, degree);
  }
  overlayEdges /= 2;
  std::printf(
      "\noverlay H: %zu nodes, %d edges (MIS pairs within 3 G-hops), "
      "max degree %d\n",
      misNodes.size(), overlayEdges, maxDegree);
  std::printf(
      "FMMB's spread stage runs BMMB over this overlay; its diameter\n"
      "bounds the D term of Theorem 4.1.\n");
  return 0;
}
