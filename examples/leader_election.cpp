// Leader election by max-flood on the standard abstract MAC layer.
//
// The paper's conclusion lists leader election among the natural
// follow-up problems for abstract MAC layer models.  This example runs
// the library's max-flood protocol (core/max_flood.h) on a grey-zone
// sensor field under three schedulers and shows that:
//   * every node converges to the same leader (the max id in its
//     G-component), no matter how adversarial the scheduling;
//   * unreliable links can only help (stale deliveries carry dominated
//     values), in contrast to MMB where they are the source of the
//     paper's lower bounds.
//
// It also dumps the topology as Graphviz DOT for inspection.
#include <cstdio>

#include "core/max_flood.h"
#include "graph/dot_export.h"
#include "graph/generators.h"
#include "mac/schedulers.h"
#include "mac/trace_checker.h"

int main() {
  using namespace ammb;

  Rng topoRng(31337);
  const auto field = graph::gen::greyZoneField(40, 7.0, 1.5, 0.4, topoRng);
  std::printf("field: %d nodes, diameter %d, %zu unreliable edges\n",
              field.n(), field.g().diameter(),
              field.gPrime().edgeCount() - field.g().edgeCount());

  mac::MacParams params;
  params.fprog = 4;
  params.fack = 32;
  params.variant = mac::ModelVariant::kStandard;

  std::printf("\n%-16s %14s %12s %12s\n", "scheduler", "converged at",
              "broadcasts", "leader");
  const char* names[] = {"fast", "random", "adversarial"};
  for (int s = 0; s < 3; ++s) {
    std::unique_ptr<mac::Scheduler> scheduler;
    switch (s) {
      case 0: scheduler = std::make_unique<mac::FastScheduler>(); break;
      case 1: scheduler = std::make_unique<mac::RandomScheduler>(); break;
      default:
        scheduler = std::make_unique<mac::AdversarialScheduler>();
        break;
    }
    core::MaxFloodSuite suite;
    const graph::TopologyView view(field);
    mac::MacEngine engine(view, params, std::move(scheduler),
                          suite.factory(), 5);
    engine.run();

    std::int64_t leader = -1;
    bool agree = true;
    for (NodeId v = 0; v < field.n(); ++v) {
      const auto b = suite.process(v).best();
      if (leader < 0) leader = b;
      agree = agree && (b == leader);
    }
    const auto check = mac::checkTrace(view, params, engine.trace());
    std::printf("%-16s %14lld %12llu %12lld%s%s\n", names[s],
                static_cast<long long>(engine.now()),
                static_cast<unsigned long long>(engine.stats().bcasts),
                static_cast<long long>(leader),
                agree ? "" : "  [DISAGREEMENT]",
                check.ok ? "" : "  [MODEL VIOLATION]");
  }

  // Topology snapshot for graphviz (`neato -n -Tpng`).
  graph::DotOptions dotOptions;
  dotOptions.highlight = {static_cast<NodeId>(field.n() - 1)};  // the leader
  const std::string dot = graph::toDot(field, dotOptions);
  std::printf("\nDOT export: %zu bytes (first line: %s)\n", dot.size(),
              dot.substr(0, dot.find('\n')).c_str());
  return 0;
}
