// The trace pipeline's contracts, bottom to top: the TraceMode label
// round-trips; the spool sink's fixed-width encoding replays
// byte-identically to the in-memory vector (tolerating a torn tail,
// rejecting mid-record corruption); the Trace facade feeds live
// consumers the exact committed sequence, stored or not; the streaming
// oracles are byte-identical to their whole-trace references
// (tests/support), on clean runs and under every CI mutation campaign;
// and whole executions — every committed golden case — are
// bit-identical across trace modes, honest and mutated alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "check/fuzzer.h"
#include "check/golden.h"
#include "check/mutation.h"
#include "check/oracles.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "phys/measurement.h"
#include "runner/sweep_runner.h"
#include "sim/trace_sink.h"
#include "support/offline_reference.h"
#include "test_util.h"

namespace ammb {
namespace {

namespace gen = graph::gen;
using check::ExecutionOutcome;
using check::FuzzCase;
using check::GoldenCase;
using check::SchedulerMutation;
using sim::SpoolTraceSink;
using sim::Trace;
using sim::TraceKind;
using sim::TraceMode;
using sim::TraceRecord;

// --- TraceMode ---------------------------------------------------------------

TEST(TracePipelineMode, LabelsAndRoundTrips) {
  EXPECT_EQ(TraceMode::mem().label(), "mem");
  EXPECT_EQ(TraceMode::spool().label(), "spool");
  EXPECT_EQ(TraceMode::spool(4096).label(), "spool:4096");
  // The default buffer size is elided: "spool:16384" and "spool" are
  // the same mode with the same canonical label.
  EXPECT_EQ(TraceMode::spool(TraceMode::kDefaultSpoolBuf).label(), "spool");
  EXPECT_EQ(TraceMode::fromLabel("spool:16384").label(), "spool");

  for (const std::string label : {"mem", "spool", "spool:64", "spool:4096"}) {
    EXPECT_EQ(TraceMode::fromLabel(label).label(), label) << label;
  }
  EXPECT_EQ(TraceMode::fromLabel("spool:64"), TraceMode::spool(64));
  EXPECT_EQ(TraceMode::fromLabel("mem"), TraceMode::mem());
  EXPECT_NE(TraceMode::mem(), TraceMode::spool());
  EXPECT_NE(TraceMode::spool(64), TraceMode::spool(65));
  // A zero buffer clamps to one record rather than dividing by zero.
  EXPECT_EQ(TraceMode::spool(0).bufRecords, 1u);

  EXPECT_THROW(TraceMode::fromLabel(""), Error);
  EXPECT_THROW(TraceMode::fromLabel("Mem"), Error);
  EXPECT_THROW(TraceMode::fromLabel("disk"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:0"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:-4"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:12x"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:9999999999"), Error);
}

// --- SpoolTraceSink ----------------------------------------------------------

std::vector<TraceRecord> sampleRecords(std::size_t count) {
  std::vector<TraceRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.t = static_cast<Time>(7 * i + 1);
    r.kind = static_cast<TraceKind>(i % 8);
    r.node = static_cast<NodeId>(i % 5);
    r.instance = (i % 3 == 0) ? kNoInstance : static_cast<InstanceId>(i * 11);
    r.msg = (i % 4 == 0) ? kNoMsg : static_cast<MsgId>(i % 4);
    records.push_back(r);
  }
  return records;
}

std::vector<TraceRecord> replayed(const SpoolTraceSink& sink) {
  std::vector<TraceRecord> out;
  sink.replay([&](const TraceRecord& r) { out.push_back(r); });
  return out;
}

void expectSameRecords(const std::vector<TraceRecord>& a,
                       const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
    EXPECT_EQ(a[i].instance, b[i].instance) << i;
    EXPECT_EQ(a[i].msg, b[i].msg) << i;
  }
}

TEST(TracePipelineSpool, EncodeDecodeRoundTripsEveryField) {
  for (const TraceRecord& r : sampleRecords(16)) {
    unsigned char encoded[SpoolTraceSink::kRecordBytes];
    SpoolTraceSink::encodeRecord(r, encoded);
    const TraceRecord back = SpoolTraceSink::decodeRecord(encoded);
    EXPECT_EQ(back.t, r.t);
    EXPECT_EQ(back.kind, r.kind);
    EXPECT_EQ(back.node, r.node);
    EXPECT_EQ(back.instance, r.instance);
    EXPECT_EQ(back.msg, r.msg);
  }
  // Every byte past the last valid TraceKind is corruption.
  unsigned char encoded[SpoolTraceSink::kRecordBytes];
  SpoolTraceSink::encodeRecord(TraceRecord{}, encoded);
  encoded[24] = 0xff;
  EXPECT_THROW(SpoolTraceSink::decodeRecord(encoded), Error);
  encoded[24] =
      static_cast<unsigned char>(static_cast<int>(TraceKind::kEpoch) + 1);
  EXPECT_THROW(SpoolTraceSink::decodeRecord(encoded), Error);
}

TEST(TracePipelineSpool, ReplayMatchesMemAcrossBufferBoundaries) {
  const std::vector<TraceRecord> records = sampleRecords(23);
  // Buffer sizes straddling the record count: mid-buffer pending tail,
  // exact flush boundary, and everything-buffered.
  for (const std::size_t bufRecords : {1ul, 4ul, 23ul, 64ul}) {
    std::vector<TraceRecord> mem;
    SpoolTraceSink spool(bufRecords);
    Trace spooled(true, TraceMode::spool(bufRecords));
    for (const TraceRecord& r : records) {
      mem.push_back(r);
      spool.append(r);
      spooled.add(r);
    }
    EXPECT_EQ(spool.size(), mem.size()) << bufRecords;
    EXPECT_EQ(spool.lastTime(), mem.back().t) << bufRecords;
    // A spooled store offers replay only, never random access.
    EXPECT_THROW(spooled.records(), Error);
    expectSameRecords(replayed(spool), mem);
    // Replay flushes but must not consume: a second replay and further
    // appends still see everything.
    spool.append(records.front());
    EXPECT_EQ(replayed(spool).size(), records.size() + 1) << bufRecords;
  }
}

TEST(TracePipelineSpool, TornTailRecordIsDroppedOnReplay) {
  const std::string path = testing::TempDir() + "ammb_torn_tail.spool";
  std::remove(path.c_str());
  const std::vector<TraceRecord> records = sampleRecords(9);
  {
    SpoolTraceSink spool(path, /*bufRecords=*/4);
    for (const TraceRecord& r : records) spool.append(r);
  }  // destructor flushes all 9 records to the file

  // Tear the final record mid-write: keep 8 complete records plus a
  // 10-byte fragment, the on-disk state of an interrupted writer.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long bytes = std::ftell(f);
    ASSERT_EQ(bytes, static_cast<long>(9 * SpoolTraceSink::kRecordBytes));
    std::fclose(f);
    ASSERT_EQ(
        truncate(path.c_str(),
                 static_cast<off_t>(8 * SpoolTraceSink::kRecordBytes + 10)),
        0);
  }

  SpoolTraceSink reattached(path, /*bufRecords=*/4);
  EXPECT_EQ(reattached.size(), 8u);  // fragment excluded from the count
  const std::vector<TraceRecord> got = replayed(reattached);
  expectSameRecords(
      got, std::vector<TraceRecord>(records.begin(), records.begin() + 8));
  std::remove(path.c_str());
}

TEST(TracePipelineSpool, MidRecordCorruptionThrowsOnReplay) {
  const std::string path = testing::TempDir() + "ammb_corrupt.spool";
  std::remove(path.c_str());
  {
    SpoolTraceSink spool(path, /*bufRecords=*/4);
    for (const TraceRecord& r : sampleRecords(6)) spool.append(r);
  }
  // Smash the kind byte of a *complete* interior record: unlike a torn
  // tail this is data loss, and replay must fail loudly.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 2 * SpoolTraceSink::kRecordBytes + 24, SEEK_SET),
              0);
    const unsigned char bad = 0xff;
    ASSERT_EQ(std::fwrite(&bad, 1, 1, f), 1u);
    std::fclose(f);
  }
  SpoolTraceSink reattached(path, /*bufRecords=*/4);
  EXPECT_THROW(replayed(reattached), Error);
  std::remove(path.c_str());
}

// --- Trace facade ------------------------------------------------------------

TEST(TracePipelineFacade, SpoolTraceSupportsEverythingButRandomAccess) {
  const std::vector<TraceRecord> records = sampleRecords(40);

  Trace mem(true, TraceMode::mem());
  Trace spool(true, TraceMode::spool(8));
  for (const TraceRecord& r : records) {
    mem.add(r);
    spool.add(r);
  }

  EXPECT_EQ(spool.mode(), TraceMode::spool(8));
  EXPECT_EQ(spool.size(), mem.size());
  EXPECT_EQ(spool.lastTime(), mem.lastTime());
  EXPECT_EQ(mem.records().size(), records.size());
  EXPECT_THROW(spool.records(), Error);  // random access needs the mem sink

  std::vector<TraceRecord> viaForEach;
  spool.forEach([&](const TraceRecord& r) { viaForEach.push_back(r); });
  expectSameRecords(viaForEach, mem.records());
  EXPECT_EQ(check::traceHash(spool), check::traceHash(mem));
  EXPECT_EQ(check::canonicalTrace(spool), check::canonicalTrace(mem));
}

TEST(TracePipelineFacade, AttachedConsumersSeeTheCommittedSequence) {
  // The tee must feed consumers the exact committed order for both
  // sinks — including records added before the consumer attached (not
  // replayed; the hasher only sees what it witnessed).
  for (const TraceMode mode : {TraceMode::mem(), TraceMode::spool(8)}) {
    Trace trace(true, mode);
    check::TraceHasher hasher;
    trace.attachConsumer(&hasher);
    for (const TraceRecord& r : sampleRecords(40)) trace.add(r);
    EXPECT_EQ(hasher.hash(), check::traceHash(trace)) << mode.label();
    EXPECT_EQ(trace.size(), 40u) << mode.label();
  }
  // A disabled trace stores nothing, but its consumers still see every
  // committed record: recording decides storage, not observation.
  Trace disabled(false, TraceMode::spool(8));
  check::TraceHasher hasher;
  disabled.attachConsumer(&hasher);
  Trace stored(true, TraceMode::mem());
  for (const TraceRecord& r : sampleRecords(40)) {
    disabled.add(r);
    stored.add(r);
  }
  EXPECT_EQ(disabled.size(), 0u);
  EXPECT_TRUE(disabled.records().empty());
  EXPECT_NE(check::traceHash(disabled), check::traceHash(stored));
  EXPECT_EQ(hasher.hash(), check::traceHash(stored));
}

// An experiment that stores no records still feeds the consumers
// attached through mutableTrace() the whole run: the hash they compute
// is the stored trace's hash of the same run, and the oracle verdict
// streamed live matches the one streamed beside a stored trace.
TEST(TracePipelineFacade, UnstoredRunFeedsConsumersTheStoredSequence) {
  Rng rng(21);
  const auto topo = gen::withArbitraryNoise(gen::grid(5, 5), 3, rng);
  const core::MmbWorkload workload = core::workloadAllAtNode(3, 0);
  const core::ProtocolSpec protocol = core::bmmbProtocol();
  core::RunConfig config;
  config.mac = testutil::stdParams(4, 32);
  config.scheduler = core::SchedulerKind::kAdversarial;
  config.seed = 5;

  config.recordTrace = true;
  core::Experiment stored(topo, protocol, workload, config);
  const core::RunResult storedResult = stored.run();
  ASSERT_TRUE(storedResult.solved);
  ASSERT_GT(stored.trace().size(), 0u);

  config.recordTrace = false;
  core::Experiment unstored(topo, protocol, workload, config);
  check::TraceHasher hasher;
  check::ExecutionChecker checker(unstored.view(), protocol, config.mac,
                                  workload);
  unstored.mutableTrace().attachConsumer(&hasher);
  unstored.mutableTrace().attachConsumer(&checker);
  const core::RunResult result = unstored.run();
  EXPECT_EQ(unstored.trace().size(), 0u);
  EXPECT_EQ(hasher.hash(), check::traceHash(stored.trace()));
  EXPECT_EQ(result.endTime, storedResult.endTime);
  const check::OracleReport report = checker.finish(result);
  EXPECT_TRUE(report.ok) << report.summary();
  check::expectSameReport(
      report,
      check::checkExecution(stored.view(), protocol, config.mac, workload,
                            stored.trace(), storedResult),
      "unstored run");
}

// --- streaming oracles vs their whole-trace references -----------------------

// Checks one finished execution with the streaming oracle stack, on an
// in-memory and on a spooled copy of its records, and expects the
// whole-trace reference's report field for field: every message and
// every MAC Violation record.  Returns the reference report.
check::OracleReport expectStreamingMatchesReference(
    const core::Experiment& experiment, const core::ProtocolSpec& protocol,
    const mac::MacParams& params, const core::MmbWorkload& workload,
    const core::RunResult& result, const std::string& what) {
  Trace mem(true, TraceMode::mem());
  Trace spool(true, TraceMode::spool(64));
  experiment.trace().forEach([&](const TraceRecord& r) {
    mem.add(r);
    spool.add(r);
  });
  const check::OracleReport reference = check::checkExecutionOffline(
      experiment.view(), protocol, params, workload, mem, result);
  for (const Trace* t : {&mem, &spool}) {
    check::expectSameReport(
        check::checkExecution(experiment.view(), protocol, params, workload,
                              *t, result),
        reference, what + " @ " + t->mode().label());
  }
  return reference;
}

// One adversarially scheduled grey-zone run, then the four mutation
// campaigns CI runs through ammb_fuzz (the same sampled cases, run
// under the same broken schedulers): the streaming oracles must report
// exactly what the whole-trace references report, violations included.
// The hand-built traces of trace_checker_test.cpp go through the same
// comparison one level down, via checkTraceWithParity.
TEST(TracePipelineParity, StreamingOraclesMatchOfflineReferences) {
  Rng rng(7);
  const graph::DualGraph base = gen::greyZoneField(24, 5.0, 1.5, 0.4, rng);
  const core::MmbWorkload workload = core::workloadRoundRobin(4, base.n());
  core::RunConfig config;
  config.mac = testutil::stdParams(4, 32);
  config.scheduler = core::SchedulerKind::kAdversarialStuffing;
  config.seed = 11;
  config.limits.maxTime = 200'000;
  core::Experiment experiment(base, core::bmmbProtocol(), workload, config);
  const core::RunResult result = experiment.run();
  ASSERT_TRUE(result.solved);
  const check::OracleReport clean = expectStreamingMatchesReference(
      experiment, core::bmmbProtocol(), config.mac, workload, result,
      "grey-zone run");
  EXPECT_TRUE(clean.ok) << clean.summary();

  struct Campaign {
    SchedulerMutation mutation;
    std::uint64_t seed;
    int iterations;
  };
  for (const Campaign& campaign :
       {Campaign{SchedulerMutation::kLateAck, 3, 12},
        Campaign{SchedulerMutation::kOffGPrime, 4, 12},
        Campaign{SchedulerMutation::kStaleTopology, 5, 12},
        Campaign{SchedulerMutation::kDropOnRecovery, 6, 15}}) {
    check::FuzzSpec spec;
    spec.masterSeed = campaign.seed;
    spec.iterations = campaign.iterations;
    spec.protocols = {core::ProtocolKind::kBmmb};
    spec.mutation = campaign.mutation;
    int violating = 0;
    for (int i = 0; i < spec.iterations; ++i) {
      const FuzzCase c = check::sampleCase(spec, i);
      const graph::DualGraph topology = check::buildTopology(c);
      const auto arrivals = check::buildArrivals(c, topology.n());
      const core::MmbWorkload caseWorkload =
          core::materializeWorkload(*arrivals);
      const core::RunConfig caseConfig =
          check::runConfigFor(c, campaign.mutation);
      const core::ProtocolSpec protocol =
          check::protocolSpecFor(c, topology.n());
      core::Experiment run(topology, protocol, *arrivals, caseConfig);
      const core::RunResult caseResult = run.run();
      const check::OracleReport reference = expectStreamingMatchesReference(
          run, protocol, core::effectiveMacParams(caseConfig), caseWorkload,
          caseResult, check::toString(campaign.mutation) + " " +
                          check::toString(c));
      if (!reference.ok) ++violating;
    }
    // The comparison must have had violations to compare.
    EXPECT_GT(violating, 0) << check::toString(campaign.mutation);
  }

  // Realized-bounds measurement: the histogram accumulator equals the
  // sorted-vector rule regardless of which sink replays the records.
  const sim::Trace& trace = experiment.trace();
  sim::Trace spoolCopy(true, TraceMode::spool(64));
  trace.forEach([&](const TraceRecord& r) { spoolCopy.add(r); });
  const phys::RealizedBounds fromMem =
      phys::measureRealized(experiment.view(), config.mac, trace,
                            result.endTime);
  const phys::RealizedBounds fromSpool =
      phys::measureRealized(experiment.view(), config.mac, spoolCopy,
                            result.endTime);
  ASSERT_TRUE(fromMem.measured());
  EXPECT_TRUE(fromMem == fromSpool);
}

// --- whole-execution bit-identity across trace modes -------------------------

void expectIdentical(const ExecutionOutcome& mem,
                     const ExecutionOutcome& spool, const std::string& what) {
  ASSERT_TRUE(spool.error.empty()) << what << ": " << spool.error;
  EXPECT_EQ(spool.canonicalTrace, mem.canonicalTrace) << what;
  EXPECT_EQ(spool.traceHash, mem.traceHash) << what;
  EXPECT_EQ(spool.report.ok, mem.report.ok) << what;
  EXPECT_EQ(spool.report.violations, mem.report.violations) << what;
  EXPECT_EQ(check::canonicalRunResult(spool.result),
            check::canonicalRunResult(mem.result))
      << what;
}

// The acceptance bar of the storage seam: every committed golden case
// replays bit-identically from a disk spool.  (Equality against the mem
// outcome is equality against the .golden snapshots, which the golden
// regression test pins.)
TEST(TracePipelineParity, GoldenSuiteSpooled) {
  for (const GoldenCase& gc : check::goldenCaseSuite()) {
    const ExecutionOutcome mem = check::runCase(
        gc.fuzzCase, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(mem.error.empty()) << gc.name << ": " << mem.error;
    ASSERT_FALSE(mem.canonicalTrace.empty()) << gc.name;

    FuzzCase spooled = gc.fuzzCase;
    spooled.traceMode = TraceMode::spool(4096);
    const ExecutionOutcome spool = check::runCase(
        spooled, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
    expectIdentical(mem, spool, gc.name + " @ spool");
    EXPECT_TRUE(spool.report.ok) << gc.name << ": " << spool.report.summary();
  }
}

// Negative-path parity: a broken scheduler must produce the *same*
// violations whether the evidence was held in memory or streamed
// through the spool — storage must never launder a mutation.
// Epoch boundaries cancel pending deliveries and re-arm guard
// deadlines mid-run; a spooled trace of such a run still matches the
// in-memory one record for record, under crash/recovery and drift.
TEST(TracePipelineParity, DynamicFieldsSpooled) {
  FuzzCase base;
  base.topology = check::TopologyFamily::kGreyZoneField;
  base.n = 18;
  base.k = 4;
  base.workload = check::WorkloadShape::kRoundRobin;
  base.mac = testutil::stdParams(4, 32);
  base.maxTime = 100'000;

  FuzzCase crash = base;
  crash.scheduler = core::SchedulerKind::kRandom;
  crash.dynamics.kind = core::DynamicsSpec::Kind::kCrash;
  crash.dynamics.crashes = 2;
  crash.dynamics.period = 64;
  crash.dynamics.downFor = 24;
  crash.seed = 41;

  FuzzCase drift = base;
  drift.scheduler = core::SchedulerKind::kAdversarialStuffing;
  drift.dynamics.kind = core::DynamicsSpec::Kind::kGreyDrift;
  drift.dynamics.epochs = 4;
  drift.dynamics.period = 32;
  drift.dynamics.churn = 0.4;
  drift.seed = 42;

  for (const FuzzCase& c : {crash, drift}) {
    const ExecutionOutcome mem = check::runCase(
        c, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(mem.error.empty()) << check::toString(c) << ": " << mem.error;
    EXPECT_TRUE(mem.report.ok) << mem.report.summary();
    FuzzCase spooled = c;
    spooled.traceMode = TraceMode::spool(4096);
    const ExecutionOutcome spool = check::runCase(
        spooled, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
    expectIdentical(mem, spool, check::toString(c) + " @ spool");
  }
}

TEST(TracePipelineParity, MutationVerdictsMatchAcrossTraceModes) {
  FuzzCase c;
  c.protocol = core::ProtocolKind::kBmmb;
  c.topology = check::TopologyFamily::kGreyZoneField;
  c.n = 12;
  c.k = 3;
  c.workload = check::WorkloadShape::kRoundRobin;
  c.scheduler = core::SchedulerKind::kRandom;
  c.mac = testutil::stdParams(4, 32);
  c.maxTime = 100'000;
  c.seed = 17;

  for (const SchedulerMutation mutation :
       {SchedulerMutation::kLateAck, SchedulerMutation::kOffGPrime}) {
    const ExecutionOutcome mem =
        check::runCase(c, mutation, /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(mem.error.empty()) << mem.error;
    EXPECT_FALSE(mem.report.ok);  // the mutation must be caught at all

    FuzzCase spooled = c;
    spooled.traceMode = TraceMode::spool(64);
    const ExecutionOutcome spool =
        check::runCase(spooled, mutation, /*keepCanonicalTrace=*/true);
    expectIdentical(mem, spool, "mutated @ spool");
  }
}

// --- sweep-layer provenance --------------------------------------------------

TEST(TracePipelineSweep, RecordsCarryTraceModeAndMatchMemHashes) {
  runner::SweepSpec spec;
  spec.name = "trace-provenance";
  spec.topologies = {runner::greyZoneFieldTopology(16, 5.0, 1.5, 0.4)};
  spec.schedulers = {core::SchedulerKind::kRandom};
  spec.ks = {3};
  spec.macs = {{"f4a32", testutil::stdParams(4, 32)}};
  spec.workloads = {runner::roundRobinWorkload()};
  spec.seedBegin = 1;
  spec.seedEnd = 3;
  spec.check = runner::CheckMode::kFull;
  const std::vector<runner::RunPoint> points = runner::enumerateRuns(spec);
  ASSERT_FALSE(points.empty());

  runner::SweepSpec spooledSpec = spec;
  spooledSpec.traceMode = TraceMode::spool(256);
  for (const runner::RunPoint& point : points) {
    const runner::RunRecord mem = runner::executeRun(spec, point);
    const runner::RunRecord spooled = runner::executeRun(spooledSpec, point);
    ASSERT_TRUE(mem.error.empty()) << mem.error;
    ASSERT_TRUE(spooled.error.empty()) << spooled.error;
    EXPECT_EQ(mem.traceMode, "mem");
    EXPECT_EQ(spooled.traceMode, "spool:256");
    // Same execution, different storage: the label is provenance,
    // never an input to results.
    EXPECT_EQ(spooled.traceHash, mem.traceHash) << "run " << point.runIndex;
    EXPECT_TRUE(spooled.checked);
    EXPECT_TRUE(spooled.checkViolations.empty());
  }
}

}  // namespace
}  // namespace ammb
