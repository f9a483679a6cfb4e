// Byte pins for every format the sweep runner writes: the cells CSV,
// the runs CSV and the result document of a small hand-made grid, its
// shard document and journal lines, and the fingerprints of the
// committed campaign specs.  The records are built by hand so the grid
// reaches every elision branch of the encoders (a reactive cell,
// measured realized bounds, non-default backend and realization
// labels, unsolved, failed and checked runs, a legacy kernel label).
// AMMB_UPDATE_GOLDEN=1 rewrites the files under tests/golden/runner/.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/golden.h"
#include "runner/emit.h"
#include "runner/spec_io.h"

#ifndef AMMB_GOLDEN_DIR
#error "AMMB_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace ammb {
namespace {

using runner::RunRecord;
using runner::SweepSpec;

/// Two cells (reaction none / retransmit) of three seeds each, on a
/// CSMA realization.  The mac name carries a comma and a quote, so the
/// CSV and JSON escapers are pinned too.
const char* kGoldenGridSpec = R"({
  "name": "golden-grid",
  "protocol": "bmmb",
  "topologies": [{"kind": "line", "n": 6}],
  "schedulers": ["fast"],
  "ks": [2],
  "macs": [{"name": "std,\"q\"", "fack": 32, "fprog": 4}],
  "workloads": [{"kind": "round-robin"}],
  "reactions": ["none", "retransmit"],
  "mac": "csma:2,4,32,5,0.25",
  "seed_begin": 1,
  "seed_end": 4
})";

SweepSpec goldenSpec() {
  SweepSpec spec = runner::buildSweep(runner::parseSpec(kGoldenGridSpec));
  // Set after validation: the emitters print whatever labels the
  // result carries, and this grid pins both non-default ones at once.
  spec.backend = core::ExecutionBackend::fromLabel("net:19000,0.1,200,3,0,0");
  return spec;
}

std::string goldenFingerprint() {
  return runner::specFingerprint(runner::parseSpec(kGoldenGridSpec));
}

RunRecord baseRecord(const SweepSpec& spec, std::size_t runIndex) {
  RunRecord r;
  r.point = runner::runPointFor(spec, runIndex);
  r.realization = "csma:2,4,32,5,0.25";
  r.backend = "net:19000,0.1,200,3,0,0";
  r.result.solved = true;
  r.result.status = sim::RunStatus::kStopped;
  r.result.stats = {12, 40, 3, 12, 1, 14, 2};
  r.result.messages.arrived = 2;
  r.result.messages.completed = 2;
  return r;
}

/// Runs 0-4 of the six-run grid (run 5 is left out, as a shard would).
std::vector<RunRecord> goldenRecords(const SweepSpec& spec) {
  std::vector<RunRecord> records;

  // Checked, measured, with violations, a canonical trace and the
  // legacy kernel label.
  RunRecord checked = baseRecord(spec, 0);
  checked.kernel = "parallel:4";
  checked.traceMode = "spool:4096";
  checked.result.solveTime = 120;
  checked.result.endTime = 130;
  checked.result.messages.p50Latency = 50;
  checked.result.messages.p95Latency = 90;
  checked.result.messages.maxLatency = 90;
  checked.result.messages.meanLatency = 70.5;
  checked.result.messages.perMessage = {{0, 0, 50}, {1, 10, 100}};
  checked.realized = {3, 5, 7, 20, 30, 41, 8, 42, 12, 40};
  checked.checked = true;
  checked.traceHash = 0x0123456789abcdefULL;
  checked.checkViolations = {"mac: late ack at t=7",
                             "mmb: quote \" and, comma"};
  checked.canonicalTrace = "# golden-grid seed=1\nt=0 arrive\n";
  records.push_back(checked);

  // Unsolved: the solve-time column stays empty, a message never
  // completes.
  RunRecord unsolved = baseRecord(spec, 1);
  unsolved.result.solved = false;
  unsolved.result.solveTime = kTimeNever;
  unsolved.result.endTime = 500;
  unsolved.result.status = sim::RunStatus::kTimeLimit;
  unsolved.result.messages.completed = 1;
  unsolved.result.messages.p50Latency = 60;
  unsolved.result.messages.p95Latency = 60;
  unsolved.result.messages.maxLatency = 60;
  unsolved.result.messages.meanLatency = 60.0;
  unsolved.result.messages.perMessage = {{0, 0, 60}, {1, 5, kTimeNever}};
  unsolved.realized = {4, 6, 9, 18, 33, 39, 10, 35, 9, 30};
  unsolved.checked = true;
  unsolved.traceHash = 42;
  records.push_back(unsolved);

  RunRecord failed = baseRecord(spec, 2);
  failed.result = core::RunResult{};
  failed.error = "topology generator threw: n, \"quoted\"";
  records.push_back(failed);

  // The reactive cell: react_idx 1 and retransmits on the record.
  for (std::size_t run : {3u, 4u}) {
    RunRecord reactive = baseRecord(spec, run);
    reactive.realization = "abstract";
    reactive.backend = "sim";
    reactive.result.solveTime = static_cast<Time>(100 + run);
    reactive.result.endTime = static_cast<Time>(110 + run);
    reactive.result.status = sim::RunStatus::kDrained;
    reactive.result.retransmits = run == 3 ? 5 : 2;
    reactive.result.messages.p50Latency = 40;
    reactive.result.messages.p95Latency = 44;
    reactive.result.messages.maxLatency = 44;
    reactive.result.messages.meanLatency = 42.0;
    reactive.result.messages.perMessage = {{0, 0, 40}, {1, 3, 47}};
    records.push_back(reactive);
  }
  return records;
}

void expectGolden(const std::string& name, const std::string& content) {
  check::GoldenStore store(std::string(AMMB_GOLDEN_DIR) + "/runner");
  const auto comparison =
      store.check(name, content, check::updateGoldensRequested());
  EXPECT_TRUE(comparison.ok()) << name << ": " << comparison.message;
}

TEST(RunnerGolden, ResultEmittersMatchCheckedInBytes) {
  const SweepSpec spec = goldenSpec();
  const runner::SweepResult result =
      runner::aggregateRecords(spec, goldenRecords(spec));
  expectGolden("cells_csv", runner::cellsCsv(result));
  expectGolden("runs_csv", runner::runsCsv(result));
  expectGolden("result_json", runner::toJson(result));
}

TEST(RunnerGolden, ShardAndJournalMatchCheckedInBytes) {
  const SweepSpec spec = goldenSpec();
  runner::ShardDoc shard;
  shard.sweep = spec.name;
  shard.specFingerprint = goldenFingerprint();
  shard.shard = runner::Shard{0, 1};
  shard.runCount = spec.runCount();
  shard.records = goldenRecords(spec);
  const std::string shardText = runner::shardJson(shard);
  expectGolden("shard_json", shardText);
  // The decoder is the encoder's exact inverse on every branch.
  EXPECT_EQ(runner::shardJson(runner::parseShardJson(shardText)), shardText);

  runner::JournalHeader header;
  header.sweep = spec.name;
  header.specFingerprint = goldenFingerprint();
  header.shard = runner::Shard{1, 2};
  header.runCount = spec.runCount();
  std::string journal = runner::journalHeaderLine(header);
  for (const RunRecord& record : goldenRecords(spec)) {
    journal += runner::journalRecordLine(record);
  }
  expectGolden("journal", journal);
  const runner::JournalDoc back = runner::parseJournal(journal);
  std::string again = runner::journalHeaderLine(back.header);
  for (const RunRecord& record : back.records) {
    again += runner::journalRecordLine(record);
  }
  EXPECT_EQ(again, journal);
}

#ifdef AMMB_SWEEPS_DIR
TEST(RunnerGolden, CommittedSpecFingerprints) {
  std::string lines;
  for (const char* name :
       {"ablation_unreliability", "churn_grid", "churn_react_grid", "ci_smoke",
        "csma_grid", "fig1_standard", "fig2_lines", "fig2_lowerbound",
        "online_arrivals"}) {
    const runner::SpecDoc doc = runner::loadSpecFile(
        std::string(AMMB_SWEEPS_DIR) + "/" + name + ".json");
    lines += std::string(name) + " " + runner::specFingerprint(doc) + "\n";
  }
  expectGolden("spec_fingerprints", lines);
}
#endif

}  // namespace
}  // namespace ammb
