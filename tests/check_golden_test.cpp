// Golden-trace regression: the canonical snapshot suite must match the
// checked-in `.golden` files byte for byte (AMMB_UPDATE_GOLDEN=1
// refreshes them), and CheckMode sweeps must produce bit-identical
// canonical traces at any worker-thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "check/golden.h"
#include "runner/emit.h"
#include "runner/sweep_runner.h"
#include "test_util.h"

#ifndef AMMB_GOLDEN_DIR
#error "AMMB_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace ammb::check {
namespace {

using core::SchedulerKind;
using runner::CheckMode;
using runner::SweepRunner;
using runner::SweepSpec;

TEST(GoldenTraces, SuiteMatchesCheckedInSnapshots) {
  GoldenStore store(AMMB_GOLDEN_DIR);
  const bool update = updateGoldensRequested();
  for (const GoldenCase& gc : goldenCaseSuite()) {
    const ExecutionOutcome outcome =
        runCase(gc.fuzzCase, SchedulerMutation::kNone,
                /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(outcome.error.empty()) << gc.name << ": " << outcome.error;
    ASSERT_TRUE(outcome.report.ok)
        << gc.name << ": " << outcome.report.summary();
    ASSERT_FALSE(outcome.canonicalTrace.empty()) << gc.name;
    const auto comparison =
        store.check(gc.name, goldenDocument(gc, outcome), update);
    EXPECT_TRUE(comparison.ok()) << gc.name << ": " << comparison.message;
  }
}

// Running the suite back to front reproduces every case exactly: no
// engine, guard or protocol state leaks from one execution into the
// next one in the same process.
TEST(GoldenTraces, SuiteReplaysIdenticallyInReverseOrder) {
  const std::vector<GoldenCase> suite = goldenCaseSuite();
  std::vector<ExecutionOutcome> forward;
  for (const GoldenCase& gc : suite) {
    forward.push_back(runCase(gc.fuzzCase, SchedulerMutation::kNone,
                              /*keepCanonicalTrace=*/true));
    ASSERT_TRUE(forward.back().error.empty())
        << gc.name << ": " << forward.back().error;
  }
  for (std::size_t i = suite.size(); i-- > 0;) {
    const ExecutionOutcome again =
        runCase(suite[i].fuzzCase, SchedulerMutation::kNone,
                /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(again.error.empty()) << suite[i].name << ": " << again.error;
    EXPECT_EQ(again.canonicalTrace, forward[i].canonicalTrace)
        << suite[i].name;
    EXPECT_EQ(again.traceHash, forward[i].traceHash) << suite[i].name;
    EXPECT_EQ(canonicalRunResult(again.result),
              canonicalRunResult(forward[i].result))
        << suite[i].name;
  }
}

TEST(GoldenTraces, CanonicalSerializationIsStable) {
  // The serialization itself is part of the golden format: a change
  // here invalidates every snapshot, so pin its shape directly.
  sim::Trace trace;
  trace.add({0, sim::TraceKind::kArrive, 3, kNoInstance, 7});
  trace.add({5, sim::TraceKind::kBcast, 3, 2, kNoMsg});
  EXPECT_EQ(canonicalTrace(trace),
            "t=0 arrive node=3 msg=7\nt=5 bcast node=3 inst=2\n");
  // Hash is a pure function of the records and differs across traces.
  EXPECT_EQ(traceHash(trace), traceHash(trace));
  sim::Trace other;
  other.add({0, sim::TraceKind::kArrive, 3, kNoInstance, 8});
  EXPECT_NE(traceHash(trace), traceHash(other));

  core::RunResult result;
  result.solved = true;
  result.solveTime = 41;
  result.endTime = 41;
  result.status = sim::RunStatus::kStopped;
  const std::string text = canonicalRunResult(result);
  EXPECT_NE(text.find("solved=1"), std::string::npos);
  EXPECT_NE(text.find("solve_time=41"), std::string::npos);
  EXPECT_NE(text.find("status=stopped"), std::string::npos);

  core::RunResult unsolved;
  EXPECT_NE(canonicalRunResult(unsolved).find("solve_time=never"),
            std::string::npos);
}

TEST(GoldenStoreUnit, DetectsMismatchAndMissing) {
  const std::string dir = ::testing::TempDir() + "ammb_golden_unit";
  std::filesystem::remove_all(dir);  // stale state from earlier runs
  GoldenStore store(dir);
  const auto missing = store.check("case", "a\nb\n", /*update=*/false);
  EXPECT_EQ(missing.outcome, GoldenStore::Outcome::kMissing);

  const auto written = store.check("case", "a\nb\n", /*update=*/true);
  EXPECT_EQ(written.outcome, GoldenStore::Outcome::kWritten);

  const auto match = store.check("case", "a\nb\n", /*update=*/false);
  EXPECT_EQ(match.outcome, GoldenStore::Outcome::kMatch);

  const auto mismatch = store.check("case", "a\nc\n", /*update=*/false);
  EXPECT_EQ(mismatch.outcome, GoldenStore::Outcome::kMismatch);
  EXPECT_NE(mismatch.message.find("line 2"), std::string::npos)
      << mismatch.message;
}

/// A checked sweep mixing deterministic and RNG-driven cells.
SweepSpec checkedSweepSpec() {
  SweepSpec spec;
  spec.name = "checked-sweep";
  spec.topologies = {runner::lineTopology(8),
                     runner::arbitraryNoiseLineTopology(10, 3)};
  spec.schedulers = {SchedulerKind::kFast, SchedulerKind::kRandom,
                     SchedulerKind::kAdversarial};
  spec.ks = {2, 4};
  spec.macs = {{"f4a32", testutil::stdParams(4, 32)}};
  spec.workloads = {runner::roundRobinWorkload(),
                    runner::poissonWorkload(8.0)};
  spec.seedBegin = 1;
  spec.seedEnd = 4;
  spec.check = CheckMode::kFull;
  spec.keepCanonicalTraces = true;
  return spec;
}

TEST(CheckModeSweep, GoldenTracesBitIdenticalAcrossWorkerCounts) {
  const SweepSpec spec = checkedSweepSpec();

  SweepRunner::Options one;
  one.threads = 1;
  const auto base = SweepRunner(one).run(spec);
  EXPECT_EQ(base.errorCount(), 0u);
  EXPECT_EQ(base.checkViolationCount(), 0u);
  ASSERT_EQ(base.runs.size(), spec.runCount());
  for (const auto& record : base.runs) {
    EXPECT_TRUE(record.checked);
    EXPECT_TRUE(record.checkViolations.empty())
        << record.checkViolations.front();
    EXPECT_FALSE(record.canonicalTrace.empty());
    EXPECT_NE(record.traceHash, 0u);
  }

  const std::string baseCsv = runner::cellsCsv(base);
  for (int threads : {4, 8}) {
    SweepRunner::Options options;
    options.threads = threads;
    const auto result = SweepRunner(options).run(spec);
    ASSERT_EQ(result.runs.size(), base.runs.size());
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
      // The acceptance bar: byte-identical canonical snapshots, not
      // just equal aggregates.
      EXPECT_EQ(result.runs[i].canonicalTrace, base.runs[i].canonicalTrace)
          << "run " << i << " at " << threads << " threads";
      EXPECT_EQ(result.runs[i].traceHash, base.runs[i].traceHash);
    }
    EXPECT_EQ(runner::cellsCsv(result), baseCsv) << threads << " threads";
  }
}

TEST(CheckModeSweep, AggregatesAndEmittersCarryCheckColumns) {
  SweepSpec spec = checkedSweepSpec();
  spec.keepCanonicalTraces = false;
  const auto result = SweepRunner().run(spec);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.checkedRuns, cell.runs - cell.errors);
    EXPECT_EQ(cell.checkViolations, 0u);
  }
  const std::string csv = runner::cellsCsv(result);
  EXPECT_NE(csv.find("checked_runs,check_violations"), std::string::npos);
  const std::string json = runner::toJson(result);
  EXPECT_NE(json.find("\"checked_runs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"check_violations\": 0"), std::string::npos);

  std::ostringstream runsCsv;
  runner::emitRunsCsv(result, runsCsv);
  EXPECT_NE(runsCsv.str().find("checked,check_violations,trace_hash"),
            std::string::npos);
}

TEST(CheckModeSweep, ValidationRejectsCanonicalTracesWithoutCheck) {
  SweepSpec spec = checkedSweepSpec();
  spec.check = CheckMode::kOff;
  EXPECT_THROW(spec.validate(), Error);
}

}  // namespace
}  // namespace ammb::check
