// Unit tests for the streaming MAC-axiom checker: every axiom's
// violation is detected on hand-built traces.  Every hand-built trace
// but the id-reuse one (a documented divergence) is checked through
// checkTraceWithParity, which also pins the streaming verdict to the
// whole-trace reference, violation for violation, on an in-memory and
// a spooled copy.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "support/offline_reference.h"
#include "test_util.h"

namespace ammb::mac {
namespace {

namespace gen = graph::gen;
using sim::Trace;
using sim::TraceKind;
using testutil::stdParams;

// Convention for hand-built traces: a line 0-1-2 with G' = G, fprog 4,
// fack 32 unless stated otherwise.

Trace validSingleHop() {
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({32, TraceKind::kAck, 0, 0, kNoMsg});
  return t;
}

TEST(TraceChecker, AcceptsValidExecution) {
  const auto topo = gen::identityDual(gen::line(2));
  const auto res = checkTraceWithParity(topo, stdParams(), validSingleHop());
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(TraceChecker, DetectsDoubleBcast) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kBcast, 0, 1, kNoMsg});  // no intervening ack
  const auto res = checkTraceWithParity(topo, stdParams(), t);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("well-formedness"), std::string::npos);
}

TEST(TraceChecker, DetectsDeliveryOutsideGPrime) {
  const auto topo = gen::identityDual(gen::line(3));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 2, 0, kNoMsg});  // node 2 is 2 hops away
  t.add({2, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({3, TraceKind::kAck, 0, 0, kNoMsg});
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsDuplicateDelivery) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({2, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({3, TraceKind::kAck, 0, 0, kNoMsg});
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsRcvAfterAck) {
  Rng rng(1);
  const auto topo = gen::withArbitraryNoise(gen::line(3), 1, rng);
  // Find the unreliable pair so the extra delivery is inside G'.
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({2, TraceKind::kAck, 0, 0, kNoMsg});
  t.add({3, TraceKind::kRcv, 1, 0, kNoMsg});  // after ack AND duplicate
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsAckBeforeGNeighborReceives) {
  const auto topo = gen::identityDual(gen::star(3));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({2, TraceKind::kAck, 0, 0, kNoMsg});  // node 2 never received
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsAckBoundViolation) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({33, TraceKind::kAck, 0, 0, kNoMsg});  // fack = 32
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsMissingTermination) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({100, TraceKind::kWake, 1, kNoInstance, kNoMsg});  // horizon marker
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
  // Within the Fack budget the open instance is fine.
  Trace young;
  young.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  young.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  EXPECT_TRUE(
      checkTraceWithParity(topo, stdParams(), young, /*horizon=*/10).ok);
}

TEST(TraceChecker, DetectsDoubleTermination) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t = validSingleHop();
  t.add({32, TraceKind::kAck, 0, 0, kNoMsg});
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsProgressViolation) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({32, TraceKind::kRcv, 1, 0, kNoMsg});  // first rcv at fack
  t.add({32, TraceKind::kAck, 0, 0, kNoMsg});
  // Window [0, 5] has a broadcasting G-neighbor and no rcv: violation.
  const auto res = checkTraceWithParity(topo, stdParams(), t);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("progress"), std::string::npos);
}

TEST(TraceChecker, ProgressSatisfiedByEarlyRcvFromLiveInstance) {
  const auto topo = gen::identityDual(gen::line(2));
  // One rcv at fprog covers the rest of the instance's lifetime: the
  // delivering instance stays unterminated, so every later window still
  // contains a contending rcv "by its end".
  const auto res = checkTraceWithParity(topo, stdParams(), validSingleHop());
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(TraceChecker, ProgressCoverageEndsWhenCoveringInstanceTerminates) {
  Rng rng(1);
  // Line 0-1 plus a G'-only edge between 2 and 1: instance from node 2
  // covers node 1's obligations only while it lives.
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  auto params = stdParams(4, 64);
  Trace t;
  t.add({0, TraceKind::kBcast, 2, 1, kNoMsg});   // junk instance from 2
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});   // real instance from 0
  t.add({2, TraceKind::kRcv, 1, 1, kNoMsg});     // junk delivered early
  t.add({10, TraceKind::kAck, 2, 1, kNoMsg});    // junk terminates at 10
  t.add({64, TraceKind::kRcv, 1, 0, kNoMsg});    // real delivery at fack
  t.add({64, TraceKind::kAck, 0, 0, kNoMsg});
  // Coverage from the junk rcv ends at t=9; windows starting in
  // [10, 64-4-1] are uncovered: violation.
  const auto res = checkTraceWithParity(topo, params, t);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("progress"), std::string::npos);

  // A second junk instance covering the tail fixes it.
  Trace t2;
  t2.add({0, TraceKind::kBcast, 2, 1, kNoMsg});
  t2.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t2.add({2, TraceKind::kRcv, 1, 1, kNoMsg});
  t2.add({10, TraceKind::kAck, 2, 1, kNoMsg});
  t2.add({10, TraceKind::kBcast, 2, 2, kNoMsg});
  t2.add({12, TraceKind::kRcv, 1, 2, kNoMsg});
  t2.add({64, TraceKind::kRcv, 1, 0, kNoMsg});
  t2.add({64, TraceKind::kAck, 0, 0, kNoMsg});
  t2.add({74, TraceKind::kAck, 2, 2, kNoMsg});
  const auto res2 = checkTraceWithParity(topo, params, t2);
  EXPECT_TRUE(res2.ok) << res2.summary();
}

TEST(TraceChecker, AbortAllowsGracePeriodDeliveries) {
  const auto topo = gen::identityDual(gen::line(2));
  auto params = stdParams();
  params.epsAbort = 2;
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kAbort, 0, 0, kNoMsg});
  t.add({3, TraceKind::kRcv, 1, 0, kNoMsg});  // within epsAbort
  EXPECT_TRUE(checkTraceWithParity(topo, params, t).ok);
  Trace late;
  late.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  late.add({1, TraceKind::kAbort, 0, 0, kNoMsg});
  late.add({4, TraceKind::kRcv, 1, 0, kNoMsg});  // beyond epsAbort
  EXPECT_FALSE(checkTraceWithParity(topo, params, late).ok);
}

TEST(TraceChecker, AbortedInstanceNeedsNoAck) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kAbort, 0, 0, kNoMsg});
  EXPECT_TRUE(checkTraceWithParity(topo, stdParams(), t, /*horizon=*/100).ok);
}

TEST(TraceChecker, DetectsInstanceIdReusedAfterItsTombstoneExpired) {
  // The first incarnation of instance 0 acks at 32; its state expires
  // once the stream passes 32 + max(epsAbort, Fack) = 64.  A bcast
  // that reuses the id at 100 is still a duplicate bcast record; the
  // records that follow belong to no live instance.  (The whole-trace
  // reference attributes them to the first incarnation instead, so
  // this trace is checked without the parity wrapper.)
  const auto topo = gen::identityDual(gen::line(2));
  Trace t = validSingleHop();
  t.add({100, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({104, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({132, TraceKind::kAck, 0, 0, kNoMsg});
  const auto res =
      checkTrace(graph::TopologyView(topo), stdParams(4, 32), t);
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.records.size(), 3u) << res.summary();
  EXPECT_EQ(res.records[0].axiom, "well-formedness");
  EXPECT_EQ(res.records[0].instance, 0);
  EXPECT_EQ(res.records[0].node, 0);
  EXPECT_EQ(res.records[0].time, 100);
  EXPECT_EQ(res.records[0].detail, "duplicate bcast record for instance 0");
  EXPECT_EQ(res.records[1].axiom, "rcv-unknown-instance");
  EXPECT_EQ(res.records[1].time, 104);
  EXPECT_EQ(res.records[2].axiom, "term-unknown-instance");
  EXPECT_EQ(res.records[2].time, 132);
}

TEST(TraceChecker, DetectsInstanceIdReusedWhileItsTombstoneLives) {
  // The same reuse as above, but at 40, before the first incarnation's
  // state expires at 64: the streaming checker still holds its
  // tombstone, and the verdict matches the whole-trace reference.
  const auto topo = gen::identityDual(gen::line(2));
  Trace t = validSingleHop();
  t.add({40, TraceKind::kBcast, 0, 0, kNoMsg});
  const auto res = checkTraceWithParity(topo, stdParams(4, 32), t);
  ASSERT_FALSE(res.ok);
  ASSERT_FALSE(res.records.empty());
  EXPECT_EQ(res.records[0].axiom, "well-formedness");
  EXPECT_EQ(res.records[0].instance, 0);
  EXPECT_EQ(res.records[0].time, 40);
  EXPECT_EQ(res.records[0].detail, "duplicate bcast record for instance 0");
}

TEST(TraceChecker, RcvForUnknownInstance) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({1, TraceKind::kRcv, 1, 42, kNoMsg});
  EXPECT_FALSE(checkTraceWithParity(topo, stdParams(), t).ok);
}

TEST(TraceChecker, RcvExactlyAtTheEpsAbortBoundary) {
  // The grace period is inclusive: a receive at termAt + epsAbort is
  // the last legal instant, one tick later is the first illegal one.
  const auto topo = gen::identityDual(gen::line(2));
  auto params = stdParams();
  params.epsAbort = 3;
  Trace boundary;
  boundary.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  boundary.add({2, TraceKind::kAbort, 0, 0, kNoMsg});
  boundary.add({5, TraceKind::kRcv, 1, 0, kNoMsg});  // t = termAt + epsAbort
  const auto ok = checkTraceWithParity(topo, params, boundary);
  EXPECT_TRUE(ok.ok) << ok.summary();

  Trace past;
  past.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  past.add({2, TraceKind::kAbort, 0, 0, kNoMsg});
  past.add({6, TraceKind::kRcv, 1, 0, kNoMsg});  // one tick beyond
  const auto bad = checkTraceWithParity(topo, params, past);
  ASSERT_FALSE(bad.ok);
  ASSERT_EQ(bad.records.size(), 1u);
  EXPECT_EQ(bad.records[0].axiom, "rcv-after-abort");
  EXPECT_EQ(bad.records[0].instance, 0);
  EXPECT_EQ(bad.records[0].node, 1);
  EXPECT_EQ(bad.records[0].time, 6);
}

TEST(TraceChecker, InFlightInstanceWithExpiredFackBudgetAtHorizon) {
  const auto topo = gen::identityDual(gen::line(2));
  const auto params = stdParams(4, 32);
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});  // progress satisfied

  // Budget expires exactly at the horizon: still legal (the ack may
  // land on the closing tick of the observation window).
  EXPECT_TRUE(checkTraceWithParity(topo, params, t, /*horizon=*/32).ok);

  // One tick past the budget: the instance can no longer terminate in
  // time — a termination violation with the expiry timestamp.
  const auto res = checkTraceWithParity(topo, params, t, /*horizon=*/33);
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].axiom, "termination");
  EXPECT_EQ(res.records[0].instance, 0);
  EXPECT_EQ(res.records[0].node, 0);
  EXPECT_EQ(res.records[0].time, 32);  // bcastAt + Fack
  EXPECT_NE(res.summary().find("never terminated"), std::string::npos);
}

TEST(TraceChecker, NeverHorizonOnAnEmptyTrace) {
  // kTimeNever horizon + no records: the window collapses to t = 0 and
  // the verdict is a clean pass, not an out-of-range access.
  const auto topo = gen::identityDual(gen::line(3));
  const Trace empty;
  const auto res = checkTraceWithParity(topo, stdParams(), empty, kTimeNever);
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.violations.empty());
  EXPECT_TRUE(res.records.empty());
  EXPECT_EQ(res.summary(), "ok");
}

TEST(TraceChecker, SummaryIsDefensiveWithoutRecordedViolations) {
  // A result marked failed with no recorded violations (e.g. built by
  // an aggregator) must not touch violations.front().
  CheckResult result;
  result.ok = false;
  EXPECT_EQ(result.summary(), "no violations recorded");
  result.violations.push_back("boom");
  EXPECT_EQ(result.summary(), "boom");
  result.ok = true;
  EXPECT_EQ(result.summary(), "ok");
}

TEST(TraceChecker, StructuredRecordsParallelTheMessages) {
  const auto topo = gen::identityDual(gen::line(3));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 2, 0, kNoMsg});  // outside G'
  t.add({2, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({40, TraceKind::kAck, 0, 0, kNoMsg});  // past Fack = 32
  const auto res = checkTraceWithParity(topo, stdParams(), t);
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.records.size(), res.violations.size());
  bool sawOffGPrime = false;
  bool sawAckBound = false;
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    EXPECT_EQ(res.records[i].detail, res.violations[i]);
    if (res.records[i].axiom == "rcv-off-gprime") {
      sawOffGPrime = true;
      EXPECT_EQ(res.records[i].node, 2);
      EXPECT_EQ(res.records[i].time, 1);
    }
    if (res.records[i].axiom == "ack-bound") {
      sawAckBound = true;
      EXPECT_EQ(res.records[i].node, 0);
      EXPECT_EQ(res.records[i].time, 40);
    }
  }
  EXPECT_TRUE(sawOffGPrime);
  EXPECT_TRUE(sawAckBound);
}

}  // namespace
}  // namespace ammb::mac
