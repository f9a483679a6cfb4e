// Focused tests for the progress guard: the engine component that
// keeps adversarial schedulers honest.  Each scenario is driven by a
// purpose-built scheduler and verified both through engine state and
// the offline checker.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/topology_view.h"
#include "mac/engine.h"
#include "mac/schedulers.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb::mac {
namespace {

namespace gen = graph::gen;
using testutil::stdParams;

class SendN : public Process {
 public:
  explicit SendN(int count, NodeId who = 0) : remaining_(count), who_(who) {}
  void onWake(Context& ctx) override {
    if (ctx.id() == who_) next(ctx);
  }
  void onAck(Context& ctx, const Packet&) override { next(ctx); }

 private:
  void next(Context& ctx) {
    if (remaining_-- <= 0) return;
    Packet p;
    p.tag = remaining_;
    ctx.bcast(std::move(p));
  }
  int remaining_;
  NodeId who_;
};

/// Plans every instance from a per-sender script: one delivery to each
/// G'-neighbor at bcast + deliverAfter, the ack at bcast + ackAfter.
class ScriptedScheduler : public Scheduler {
 public:
  struct Script {
    Time deliverAfter = 0;
    Time ackAfter = 0;
  };
  explicit ScriptedScheduler(std::vector<Script> scripts)
      : scripts_(std::move(scripts)) {}
  DeliveryPlan planBcast(const Instance& inst) override {
    const Script& s = scripts_[static_cast<std::size_t>(inst.sender)];
    DeliveryPlan plan;
    plan.ackAt = inst.bcastAt + s.ackAfter;
    for (NodeId j : engine_->topology().gPrime().neighbors(inst.sender)) {
      plan.deliveries.push_back({j, inst.bcastAt + s.deliverAfter});
    }
    return plan;
  }

 private:
  std::vector<Script> scripts_;
};

/// Broadcasts once at wake and aborts `abortAfter` ticks later.
class BcastThenAbort : public Process {
 public:
  explicit BcastThenAbort(Time abortAfter) : abortAfter_(abortAfter) {}
  void onWake(Context& ctx) override {
    ctx.bcast(Packet{});
    ctx.setTimerAfter(abortAfter_);
  }
  void onTimer(Context& ctx, TimerId) override {
    if (ctx.busy()) ctx.abortBcast();
  }

 private:
  Time abortAfter_;
};

/// (time, sender) of every receive at `node`, in trace order.
std::vector<std::pair<Time, NodeId>> rcvsAt(const MacEngine& engine,
                                            NodeId node) {
  std::vector<std::pair<Time, NodeId>> out;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind != sim::TraceKind::kRcv || rec.node != node) continue;
    out.emplace_back(rec.t, engine.instance(rec.instance).sender);
  }
  return out;
}

/// Node 1 with G-neighbor 0 and G'-only neighbors 2..n-1.
graph::DualGraph receiverStar(NodeId n) {
  graph::Graph g(n);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v != 1) gp.addEdge(v, 1);
  }
  gp.finalize();
  return graph::DualGraph(std::move(g), std::move(gp));
}

TEST(ProgressGuard, ForcesExactlyOneDeliveryPerInstanceLifetime) {
  // A 2-node line under the adversary: the guard must force the
  // delivery at fprog, and the single rcv covers the rest of the
  // instance's lifetime (no further forcing).
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId) -> std::unique_ptr<Process> {
                     return std::make_unique<SendN>(3);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().bcasts, 3u);
  // One forced delivery per broadcast: 3 total, each at bcast + fprog.
  EXPECT_EQ(engine.stats().forcedRcvs, 3u);
  std::vector<Time> rcvTimes;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv) rcvTimes.push_back(rec.t);
  }
  EXPECT_EQ(rcvTimes, (std::vector<Time>{4, 36, 68}));
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, JunkCoverageSuppressesForcedRealDeliveries) {
  // Node 1 sits between broadcaster 0 (G-neighbor) and junk source 2
  // (G'-only neighbor).  When both broadcast, the adversary covers
  // node 1's obligations with junk from 2 and withholds the real
  // message until the ack.
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<SendN>(1, 0);
                     if (node == 2) return std::make_unique<SendN>(1, 2);
                     return std::make_unique<SendN>(0, 1);
                   },
                   1);
  engine.run();
  // Find when node 1 received the real message (instance from 0).
  Time realAt = -1;
  Time junkAt = -1;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind != sim::TraceKind::kRcv || rec.node != 1) continue;
    const auto& inst = engine.instance(rec.instance);
    if (inst.sender == 0) realAt = rec.t;
    if (inst.sender == 2) junkAt = rec.t;
  }
  // The junk was forced at the progress deadline; the real message
  // only arrived with the ack at fack.
  EXPECT_EQ(junkAt, 4);
  EXPECT_EQ(realAt, 32);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, CoverageExpiresWhenJunkInstanceTerminates) {
  // Same topology, but the junk source finishes fast (FastScheduler
  // semantics simulated by a custom plan is overkill — instead make
  // node 2 broadcast under the adversary too; its instance lives the
  // full fack, then terminates; node 0 keeps broadcasting, so after
  // the junk dies the guard must force again).
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<SendN>(4, 0);
                     if (node == 2) return std::make_unique<SendN>(1, 2);
                     return std::make_unique<SendN>(0, 1);
                   },
                   1);
  engine.run();
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
  // Node 1 must have received >= 4 messages in total: the junk one,
  // plus coverage for the later broadcasts of node 0 after the junk
  // instance terminated.
  std::size_t rcvsAt1 = 0;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv && rec.node == 1) ++rcvsAt1;
  }
  EXPECT_GE(rcvsAt1, 4u);
}

TEST(ProgressGuard, NoObligationWithoutGNeighborBroadcast) {
  // Only a G'-only neighbor broadcasts: the model owes the receiver
  // nothing, and the adversary delivers nothing before the ack.
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 2) return std::make_unique<SendN>(1, 2);
                     return std::make_unique<SendN>(0, node);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  // Node 2 has no G-neighbors at all, so its instance acks with no
  // deliveries — and that execution is still model-compliant.
  EXPECT_EQ(engine.instance(0).deliveredTo.size(), 0u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, ZeroDurationInstancesCreateNoObligation) {
  // Instant broadcasts (plan ack at the bcast tick) never open a
  // window longer than fprog.
  class InstantScheduler : public Scheduler {
   public:
    DeliveryPlan planBcast(const Instance& inst) override {
      DeliveryPlan plan;
      plan.ackAt = inst.bcastAt;
      for (NodeId j : engine_->topology().g().neighbors(inst.sender)) {
        plan.deliveries.push_back({j, inst.bcastAt});
      }
      return plan;
    }
  };
  const auto topo = gen::identityDual(gen::line(3));
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<InstantScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     return std::make_unique<SendN>(node == 0 ? 5 : 0, node);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  EXPECT_EQ(engine.now(), 0);  // everything happened at t = 0
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, AbortCancelsTheObligation) {
  // Enhanced model: a broadcast aborted before fprog elapses leaves
  // nothing to force.
  class AbortQuick : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      Packet p;
      ctx.bcast(std::move(p));
      ctx.setTimerAfter(2);  // abort before the fprog=4 deadline
    }
    void onTimer(Context& ctx, TimerId) override {
      if (ctx.busy()) ctx.abortBcast();
    }
  };
  auto params = stdParams(4, 32);
  params.variant = ModelVariant::kEnhanced;
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  MacEngine engine(view, params, std::make_unique<AdversarialScheduler>(),
                   [](NodeId) { return std::make_unique<AbortQuick>(); }, 1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  EXPECT_EQ(engine.stats().rcvs, 0u);
  const auto check = checkTrace(view, params, engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, GraceReceiveCoversOnlyThroughTheAbort) {
  // Node 0's instance obliges node 1 from t = 0.  Node 2 aborts at t = 2
  // and its planned receive still lands at t = 3, inside epsAbort.  That
  // receive covers window starts [-1, termAt - 1] = [-1, 1] only, so
  // start 2 is uncovered and the guard forces node 0's message at
  // 2 + fprog = 6 (not at 4, and not at the ack).
  auto params = stdParams(4, 32);
  params.variant = ModelVariant::kEnhanced;
  params.epsAbort = 3;
  const auto topo = receiverStar(3);
  const graph::TopologyView view(topo);
  MacEngine engine(view, params,
                   std::make_unique<ScriptedScheduler>(
                       std::vector<ScriptedScheduler::Script>{
                           {32, 32}, {0, 0}, {3, 32}}),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 2) return std::make_unique<BcastThenAbort>(2);
                     return std::make_unique<SendN>(node == 0 ? 1 : 0, node);
                   },
                   1);
  engine.run();
  EXPECT_EQ(rcvsAt(engine, 1),
            (std::vector<std::pair<Time, NodeId>>{{3, 2}, {6, 0}}));
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  const auto check = checkTrace(view, params, engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, OverlappingLiveCoversReleaseOnlyWhenTheLastTerminates) {
  // Node 1 is obliged from t = 0 by node 0 (delivery held to the ack at
  // 32).  Junk from nodes 2 and 3 lands at t = 1 and t = 2 and stays
  // live until their acks at 10 and 20.  The first ack leaves node 1
  // covered; the second re-arms the deadline at window start 20, so
  // the guard forces node 0's message at 20 + fprog = 24.
  const auto topo = receiverStar(4);
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<ScriptedScheduler>(
                       std::vector<ScriptedScheduler::Script>{
                           {32, 32}, {0, 0}, {1, 10}, {2, 20}}),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     return std::make_unique<SendN>(node == 1 ? 0 : 1, node);
                   },
                   1);
  engine.run();
  EXPECT_EQ(rcvsAt(engine, 1), (std::vector<std::pair<Time, NodeId>>{
                                   {1, 2}, {2, 3}, {24, 0}}));
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, MidInstanceEdgeObligesFromItsEpochStart) {
  // Link {0, 1} is G'-only until the epoch at t = 10 makes it reliable,
  // while node 0's instance (bcast at 0, ack at 32) is in flight.  The
  // instance obliges node 1 only from the link's live-since instant,
  // so the first uncovered window start is 10 and the guard forces the
  // delivery at 10 + fprog = 14.
  graph::Graph g(2);
  g.finalize();
  graph::Graph gp(2);
  gp.addEdge(0, 1);
  gp.finalize();
  const graph::DualGraph base(std::move(g), std::move(gp));
  graph::TopologyDynamics dynamics;
  graph::TopologyEvent up;
  up.kind = graph::TopologyEvent::Kind::kEdgeUp;
  up.u = 0;
  up.v = 1;
  up.reliable = true;
  dynamics.epochs.push_back({10, {up}});
  const graph::TopologyView view(base, dynamics);

  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<ScriptedScheduler>(
                       std::vector<ScriptedScheduler::Script>{{32, 32},
                                                              {0, 0}}),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     return std::make_unique<SendN>(node == 0 ? 1 : 0, node);
                   },
                   1);
  engine.run();
  EXPECT_EQ(rcvsAt(engine, 1),
            (std::vector<std::pair<Time, NodeId>>{{14, 0}}));
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

// Each engine's guard owns its per-receiver state, so two engines
// driven alternately in one thread run exactly as they do alone.  The
// adversary makes the guard force deliveries in both.
TEST(ProgressGuard, InterleavedEnginesMatchSoloRuns) {
  Rng rngA(11);
  Rng rngB(12);
  const auto topoA = gen::withArbitraryNoise(gen::grid(4, 4), 2, rngA);
  const auto topoB = gen::withArbitraryNoise(gen::ring(12), 3, rngB);
  const graph::TopologyView viewA(topoA);
  const graph::TopologyView viewB(topoB);
  const auto make = [](const graph::TopologyView& view) {
    return std::make_unique<MacEngine>(
        view, stdParams(4, 32), std::make_unique<AdversarialScheduler>(),
        [](NodeId node) -> std::unique_ptr<Process> {
          return std::make_unique<SendN>(3, node);
        },
        7);
  };
  const auto records = [](const MacEngine& engine) {
    std::vector<std::string> lines;
    for (const auto& rec : engine.trace().records()) {
      lines.push_back(sim::toString(rec));
    }
    return lines;
  };

  auto soloA = make(viewA);
  auto soloB = make(viewB);
  soloA->run();
  soloB->run();
  ASSERT_GT(soloA->stats().forcedRcvs, 0u);
  ASSERT_GT(soloB->stats().forcedRcvs, 0u);

  auto a = make(viewA);
  auto b = make(viewB);
  for (Time limit = 2; limit < 200; limit += 3) {
    a->run(limit);
    b->run(limit);
  }
  EXPECT_EQ(a->run(), sim::RunStatus::kDrained);
  EXPECT_EQ(b->run(), sim::RunStatus::kDrained);
  EXPECT_EQ(records(*a), records(*soloA));
  EXPECT_EQ(records(*b), records(*soloB));
  EXPECT_EQ(a->stats().forcedRcvs, soloA->stats().forcedRcvs);
  EXPECT_EQ(b->stats().forcedRcvs, soloB->stats().forcedRcvs);
}

}  // namespace
}  // namespace ammb::mac
