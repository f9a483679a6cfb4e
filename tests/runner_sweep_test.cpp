// Tests for the parallel sweep-runner subsystem: spec validation, grid
// enumeration (including the workload axis), execution, aggregation
// determinism across worker-pool sizes, and the CSV/JSON emitters.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "runner/emit.h"
#include "runner/sweep_runner.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::ProtocolKind;
using core::SchedulerKind;
using runner::SweepRunner;
using runner::SweepSpec;

/// A 16-cell, 64-run BMMB grid small enough for unit tests but wide
/// enough to exercise every axis.
SweepSpec smallBmmbSpec() {
  SweepSpec spec;
  spec.name = "unit-sweep";
  spec.topologies = {runner::lineTopology(10),
                     runner::rRestrictedLineTopology(12, 2, 0.5)};
  spec.schedulers = {SchedulerKind::kFast, SchedulerKind::kRandom,
                     SchedulerKind::kSlowAck, SchedulerKind::kAdversarial};
  spec.ks = {1, 4};
  spec.macs = {{"f4a32", testutil::stdParams(4, 32)}};
  spec.workloads = {runner::roundRobinWorkload()};
  spec.seedBegin = 1;
  spec.seedEnd = 5;
  return spec;
}

/// The same grid with the workload shape as a second real axis
/// (eager-at-t0, Poisson stream, bursty batches).
SweepSpec workloadAxisSpec() {
  SweepSpec spec = smallBmmbSpec();
  spec.name = "workload-axis-sweep";
  spec.topologies = {runner::lineTopology(10)};
  spec.schedulers = {SchedulerKind::kRandom, SchedulerKind::kAdversarial};
  spec.workloads = {runner::roundRobinWorkload(),
                    runner::poissonWorkload(25.0),
                    runner::burstyWorkload(2, 40)};
  spec.seedBegin = 1;
  spec.seedEnd = 7;  // 12 cells x 6 seeds = 72 runs
  return spec;
}

TEST(SweepSpec, ValidateRejectsIllFormedSpecs) {
  SweepSpec spec = smallBmmbSpec();
  EXPECT_NO_THROW(spec.validate());

  SweepSpec noTopo = spec;
  noTopo.topologies.clear();
  EXPECT_THROW(noTopo.validate(), Error);

  SweepSpec noWorkload = spec;
  noWorkload.workloads.clear();
  EXPECT_THROW(noWorkload.validate(), Error);

  SweepSpec emptySeeds = spec;
  emptySeeds.seedEnd = emptySeeds.seedBegin;
  EXPECT_THROW(emptySeeds.validate(), Error);

  // Records store seeds as JSON integers, so a seed needs 63 bits at most.
  SweepSpec hugeSeeds = spec;
  hugeSeeds.seedBegin = std::uint64_t{1} << 63;
  hugeSeeds.seedEnd = hugeSeeds.seedBegin + 1;
  EXPECT_THROW(hugeSeeds.validate(), Error);
  hugeSeeds.seedBegin -= 1;
  hugeSeeds.seedEnd -= 1;
  EXPECT_NO_THROW(hugeSeeds.validate());

  SweepSpec badK = spec;
  badK.ks = {0};
  try {
    badK.validate();
    FAIL() << "k = 0 must be rejected";
  } catch (const Error& e) {
    // The message names the offending value.
    EXPECT_NE(std::string(e.what()).find("got 0"), std::string::npos)
        << e.what();
  }

  SweepSpec fmmbNoFactory = spec;
  fmmbNoFactory.protocol = ProtocolKind::kFmmb;
  EXPECT_THROW(fmmbNoFactory.validate(), Error);

  // A stray FMMB factory on a BMMB sweep would be silently ignored;
  // validate() rejects it instead.
  SweepSpec strayFactory = spec;
  strayFactory.fmmbParams = [](NodeId n, int) {
    return core::FmmbParams::make(n);
  };
  EXPECT_THROW(strayFactory.validate(), Error);
}

TEST(SweepSpec, EnumerationIsDenseAndOrdered) {
  const SweepSpec spec = smallBmmbSpec();
  const auto points = runner::enumerateRuns(spec);
  ASSERT_EQ(points.size(), spec.runCount());
  ASSERT_EQ(points.size(), 64u);
  std::set<std::size_t> cells;
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].runIndex, i);
    EXPECT_LT(points[i].cellIndex, spec.cellCount());
    EXPECT_GE(points[i].seed, spec.seedBegin);
    EXPECT_LT(points[i].seed, spec.seedEnd);
    cells.insert(points[i].cellIndex);
  }
  EXPECT_EQ(cells.size(), spec.cellCount());
}

TEST(SweepSpec, WorkloadAxisMultipliesTheGrid) {
  const SweepSpec spec = workloadAxisSpec();
  // 1 topology x 2 schedulers x 2 ks x 1 mac x 3 workloads.
  EXPECT_EQ(spec.cellCount(), 12u);
  const auto points = runner::enumerateRuns(spec);
  ASSERT_EQ(points.size(), spec.runCount());
  std::set<std::size_t> wls;
  for (const auto& p : points) wls.insert(p.wlIdx);
  EXPECT_EQ(wls.size(), 3u);
}

TEST(KernelTag, SerialIsTheOnlyLabel) {
  EXPECT_EQ(runner::KernelTag{}.label(), "serial");
  EXPECT_EQ(runner::KernelTag::fromLabel("serial").label(), "serial");
  EXPECT_EQ(SweepSpec{}.kernel.label(), "serial");
}

TEST(KernelTag, RejectsEveryOtherSpellingSayingWhy) {
  for (const std::string label :
       {"", "Serial", "threads:4", "parallel", "parallel:1", "parallel:4",
        "parallel:auto"}) {
    try {
      runner::KernelTag::fromLabel(label);
      ADD_FAILURE() << "accepted kernel \"" << label << "\"";
    } catch (const Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("\"" + label + "\""), std::string::npos)
          << message;
      EXPECT_NE(message.find("parallel kernel was removed"),
                std::string::npos)
          << message;
    }
  }
}

TEST(SweepRunner, SolvesEveryRunOfABenignGrid) {
  SweepRunner::Options options;
  options.threads = 2;
  const auto result = SweepRunner(options).run(smallBmmbSpec());
  ASSERT_EQ(result.cells.size(), 16u);
  EXPECT_EQ(result.errorCount(), 0u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.runs, 4u);
    EXPECT_EQ(cell.solved, 4u) << cell.topology << " " << cell.scheduler;
    EXPECT_GE(cell.minSolve, 0);
    EXPECT_LE(cell.minSolve, cell.medianSolve);
    EXPECT_LE(cell.medianSolve, cell.p95Solve);
    EXPECT_LE(cell.p95Solve, cell.maxSolve);
    EXPECT_GT(cell.stats.delivers, 0u);
    // Latency aggregates: every run completed all k messages.
    EXPECT_EQ(cell.messages, 4u * static_cast<std::uint64_t>(cell.k));
    EXPECT_LE(cell.p50Latency, cell.p95Latency);
    EXPECT_LE(cell.p95Latency, cell.maxLatency);
  }
  ASSERT_EQ(result.runs.size(), 64u);
  for (const auto& record : result.runs) {
    EXPECT_TRUE(record.result.solved);
  }
}

TEST(SweepRunner, AggregatesAreBitIdenticalAcrossThreadCounts) {
  // The acceptance criterion of the subsystem: a >= 64-run sweep over
  // a grid with a real workload axis must aggregate bit-identically at
  // 1, 4 and 8 worker threads.  String equality of the emitted
  // CSV/JSON (which includes every aggregate field — floating-point
  // means and the per-message latency columns included) is the
  // strictest observable form of that.
  const SweepSpec spec = workloadAxisSpec();
  ASSERT_GE(spec.runCount(), 64u);
  ASSERT_GE(spec.workloads.size(), 2u);

  SweepRunner::Options one;
  one.threads = 1;
  const auto base = SweepRunner(one).run(spec);
  const std::string baseCsv = runner::cellsCsv(base);
  const std::string baseJson = runner::toJson(base);
  EXPECT_NE(baseCsv.find("p95_latency"), std::string::npos);

  for (int threads : {4, 8}) {
    SweepRunner::Options options;
    options.threads = threads;
    const auto result = SweepRunner(options).run(spec);
    EXPECT_EQ(runner::cellsCsv(result), baseCsv) << threads << " threads";
    EXPECT_EQ(runner::toJson(result), baseJson) << threads << " threads";
    // Per-run results are deterministic too, not just the aggregates.
    ASSERT_EQ(result.runs.size(), base.runs.size());
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
      EXPECT_EQ(result.runs[i].result.solveTime,
                base.runs[i].result.solveTime);
      EXPECT_EQ(result.runs[i].result.endTime, base.runs[i].result.endTime);
      EXPECT_EQ(result.runs[i].result.stats.rcvs,
                base.runs[i].result.stats.rcvs);
      EXPECT_EQ(result.runs[i].result.messages.p95Latency,
                base.runs[i].result.messages.p95Latency);
    }
  }
}

TEST(SweepRunner, RecordsCarrySerialKernelProvenance) {
  // The kernel label is provenance, never an input to results: every
  // record says "serial" and writes it, at any worker-pool size.
  SweepSpec spec = smallBmmbSpec();
  spec.seedEnd = 3;
  spec.check = runner::CheckMode::kFull;
  SweepRunner::Options one;
  one.threads = 1;
  const auto base = SweepRunner(one).run(spec);
  SweepRunner::Options four;
  four.threads = 4;
  const auto pooled = SweepRunner(four).run(spec);
  ASSERT_EQ(base.runs.size(), spec.runCount());
  ASSERT_EQ(pooled.runs.size(), base.runs.size());
  for (std::size_t i = 0; i < base.runs.size(); ++i) {
    for (const runner::RunRecord* record : {&base.runs[i], &pooled.runs[i]}) {
      ASSERT_TRUE(record->error.empty()) << record->error;
      EXPECT_TRUE(record->checkViolations.empty());
      EXPECT_EQ(record->kernel, "serial");
      const runner::json::Value json = runner::recordToJson(*record);
      const runner::json::Value* kernel = json.find("kernel");
      ASSERT_NE(kernel, nullptr);
      EXPECT_EQ(kernel->asString(), "serial");
    }
    EXPECT_EQ(pooled.runs[i].traceHash, base.runs[i].traceHash) << "run " << i;
  }
}

TEST(SweepRunner, MatchesCoreRunSeedSweep) {
  // One cell of the grid re-executed through the sequential core entry
  // point must reproduce the parallel runner's records exactly.
  SweepSpec spec = smallBmmbSpec();
  spec.topologies = {runner::lineTopology(10)};
  spec.schedulers = {SchedulerKind::kSlowAck};
  spec.ks = {4};

  SweepRunner::Options options;
  options.threads = 4;
  const auto result = SweepRunner(options).run(spec);
  ASSERT_EQ(result.runs.size(), spec.seedsPerCell());

  const auto topo = spec.topologies[0].make(0);
  core::RunConfig config;
  config.mac = spec.macs[0].params;
  config.scheduler = SchedulerKind::kSlowAck;
  config.recordTrace = false;
  const core::ArrivalFactory arrivals = [&spec, &topo](std::uint64_t seed) {
    return spec.workloads[0].make(4, topo.n(), seed);
  };
  const auto sequential =
      core::runSeedSweep(topo, core::bmmbProtocol(), arrivals, config,
                         spec.seedBegin, spec.seedEnd);
  ASSERT_EQ(sequential.size(), result.runs.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].solveTime, result.runs[i].result.solveTime);
    EXPECT_EQ(sequential[i].stats.bcasts, result.runs[i].result.stats.bcasts);
    EXPECT_EQ(sequential[i].messages.maxLatency,
              result.runs[i].result.messages.maxLatency);
  }
}

TEST(SweepRunner, FmmbGridRuns) {
  SweepSpec spec;
  spec.name = "fmmb-unit";
  spec.protocol = ProtocolKind::kFmmb;
  spec.topologies = {runner::greyZoneFieldTopology(16, 7.0, 1.5, 0.4)};
  spec.schedulers = {SchedulerKind::kFast, SchedulerKind::kRandom};
  spec.ks = {2};
  spec.macs = {{"enh", testutil::enhParams(4, 32)}};
  spec.workloads = {runner::roundRobinWorkload()};
  spec.seedBegin = 1;
  spec.seedEnd = 3;
  spec.fmmbParams = [](NodeId n, int) { return core::FmmbParams::make(n); };

  SweepRunner::Options options;
  options.threads = 2;
  const auto result = SweepRunner(options).run(spec);
  EXPECT_EQ(result.errorCount(), 0u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.solved, cell.runs) << cell.scheduler;
  }
}

TEST(SweepRunner, RunFailuresAreCapturedPerRun) {
  SweepSpec spec = smallBmmbSpec();
  spec.topologies = {{"boom", [](std::uint64_t seed) -> graph::DualGraph {
                        if (seed % 2 == 0) throw Error("intentional");
                        return runner::lineTopology(8).make(seed);
                      }}};
  spec.schedulers = {SchedulerKind::kFast};
  spec.ks = {1};
  spec.seedBegin = 1;
  spec.seedEnd = 5;
  const auto result = SweepRunner().run(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].runs, 4u);
  EXPECT_EQ(result.cells[0].errors, 2u);
  EXPECT_EQ(result.cells[0].solved, 2u);
  EXPECT_EQ(result.errorCount(), 2u);
}

TEST(Emitters, CsvAndJsonCarryTheGrid) {
  SweepSpec spec = smallBmmbSpec();
  spec.topologies = {runner::lineTopology(10)};
  spec.schedulers = {SchedulerKind::kFast};
  spec.ks = {2};
  spec.seedBegin = 1;
  spec.seedEnd = 3;
  const auto result = SweepRunner().run(spec);

  const std::string csv = runner::cellsCsv(result);
  EXPECT_NE(csv.find("sweep,protocol,workload,topology,"), std::string::npos);
  EXPECT_NE(csv.find("messages,mean_latency,p50_latency,p95_latency,"
                     "max_latency"),
            std::string::npos);
  EXPECT_NE(
      csv.find("unit-sweep,bmmb,round-robin,line10,fast,2,f4a32,static,none"),
      std::string::npos);

  const std::string json = runner::toJson(result);
  EXPECT_NE(json.find("\"topology\": \"line10\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"round-robin\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p95_latency\""), std::string::npos);

  std::ostringstream runsCsv;
  runner::emitRunsCsv(result, runsCsv);
  EXPECT_NE(runsCsv.str().find("run_index,cell_index,"), std::string::npos);
  EXPECT_NE(
      runsCsv.str().find("line10,fast,2,f4a32,round-robin,static,none,1,1,"),
      std::string::npos);
}

}  // namespace
}  // namespace ammb
