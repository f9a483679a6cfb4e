// Quickstart: flood three messages through a 6x5 grid with BMMB.
//
// Demonstrates the minimal end-to-end wiring of the library:
//   1. build a dual-graph topology (here G' = G, the reliable case);
//   2. describe the MMB workload (which messages arrive where);
//   3. pick MAC timing parameters and a message scheduler;
//   4. run the experiment and inspect the results + execution trace.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"

int main() {
  using namespace ammb;

  // 1. Topology: a 6x5 grid of reliable links; no unreliable edges.
  const auto topology = graph::gen::identityDual(graph::gen::grid(6, 5));
  std::printf("topology: %d nodes, %zu reliable edges, diameter %d\n",
              topology.n(), topology.g().edgeCount(),
              topology.g().diameter());

  // 2. Workload: three messages injected at three corners at t = 0.
  core::MmbWorkload workload;
  workload.k = 3;
  workload.arrivals = {{0, 0}, {5, 1}, {24, 2}};

  // 3. MAC parameters and scheduler: the progress bound Fprog is much
  //    smaller than the acknowledgment bound Fack, as in real MAC
  //    layers; the random scheduler plays a "typical" network.
  core::RunConfig config;
  config.mac.fprog = 4;
  config.mac.fack = 32;
  config.mac.variant = mac::ModelVariant::kStandard;
  config.scheduler = core::SchedulerKind::kRandom;
  config.seed = 2024;

  // 4. Run BMMB and report.
  core::Experiment experiment(topology, core::bmmbProtocol(), workload,
                              config);
  const core::RunResult result = experiment.run();

  std::printf("solved: %s\n", result.solved ? "yes" : "no");
  std::printf("solve time: %lld ticks (Fprog=%lld, Fack=%lld)\n",
              static_cast<long long>(result.solveTime),
              static_cast<long long>(config.mac.fprog),
              static_cast<long long>(config.mac.fack));
  std::printf("broadcasts: %llu, receives: %llu, delivers: %llu\n",
              static_cast<unsigned long long>(result.stats.bcasts),
              static_cast<unsigned long long>(result.stats.rcvs),
              static_cast<unsigned long long>(result.stats.delivers));
  std::printf("per-message latency: p50=%lld p95=%lld max=%lld ticks\n",
              static_cast<long long>(result.messages.p50Latency),
              static_cast<long long>(result.messages.p95Latency),
              static_cast<long long>(result.messages.maxLatency));

  // The theoretical bound of Theorem 3.16 (r = 1 because G' = G):
  const Time bound = core::bmmbRRestrictedBound(topology.g().diameter(),
                                                workload.k, 1, config.mac);
  std::printf("Theorem 3.16 bound: %lld ticks (measured/bound = %.2f)\n",
              static_cast<long long>(bound),
              static_cast<double>(result.solveTime) / bound);

  // Every execution can be re-validated against the MAC model axioms.
  const auto check =
      mac::checkTrace(experiment.view(), config.mac, experiment.trace());
  std::printf("model axioms: %s\n", check.ok ? "all hold" : "VIOLATED");

  // Peek at the first few trace events.
  std::printf("\nfirst 10 trace events:\n");
  int shown = 0;
  for (const auto& record : experiment.engine().trace().records()) {
    if (record.kind == sim::TraceKind::kWake) continue;
    std::printf("  %s\n", sim::toString(record).c_str());
    if (++shown == 10) break;
  }
  return check.ok && result.solved ? 0 : 1;
}
