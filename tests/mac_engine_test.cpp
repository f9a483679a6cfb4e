// Unit tests for the MAC engine: API contracts, plan validation,
// standard/enhanced model split, abort semantics, progress forcing.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/engine.h"
#include "mac/schedulers.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb::mac {
namespace {

namespace gen = graph::gen;
using testutil::enhParams;
using testutil::stdParams;

/// A process that broadcasts `count` data packets back to back.
class ChainSender : public Process {
 public:
  explicit ChainSender(int count) : remaining_(count) {}
  void onWake(Context& ctx) override { sendNext(ctx); }
  void onAck(Context& ctx, const Packet&) override { sendNext(ctx); }

 private:
  void sendNext(Context& ctx) {
    if (remaining_ <= 0) return;
    --remaining_;
    Packet p;
    p.msgs = {0};
    ctx.bcast(std::move(p));
  }
  int remaining_;
};

/// A silent process.
class Idle : public Process {};

MacEngine::ProcessFactory idleFactory() {
  return [](NodeId) { return std::make_unique<Idle>(); };
}

TEST(MacEngine, WakeHappensBeforeArrivals) {
  const auto topo = gen::identityDual(gen::line(2));
  std::vector<std::string> log;
  class Recorder : public Process {
   public:
    explicit Recorder(std::vector<std::string>& log) : log_(log) {}
    void onWake(Context&) override { log_.push_back("wake"); }
    void onArrive(Context&, MsgId) override { log_.push_back("arrive"); }

   private:
    std::vector<std::string>& log_;
  };
  const graph::TopologyView view(topo);
  MacEngine engine(
      view, stdParams(), std::make_unique<FastScheduler>(),
      [&log](NodeId) { return std::make_unique<Recorder>(log); }, 1);
  engine.injectArriveAt(0, 0, 0);
  engine.run();
  ASSERT_EQ(log.size(), 3u);  // two wakes, one arrive
  EXPECT_EQ(log[0], "wake");
  EXPECT_EQ(log[1], "wake");
  EXPECT_EQ(log[2], "arrive");
}

TEST(MacEngine, DoubleBcastViolatesWellFormedness) {
  const auto topo = gen::identityDual(gen::line(2));
  class DoubleSender : public Process {
   public:
    void onWake(Context& ctx) override {
      Packet a;
      ctx.bcast(std::move(a));
      Packet b;
      ctx.bcast(std::move(b));  // before the ack: must throw
    }
  };
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(), std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<DoubleSender>(); }, 1);
  EXPECT_THROW(engine.run(), Error);
}

TEST(MacEngine, PacketCapacityEnforced) {
  const auto topo = gen::identityDual(gen::line(2));
  class FatSender : public Process {
   public:
    void onWake(Context& ctx) override {
      Packet p;
      p.msgs = {0, 1, 2};
      ctx.bcast(std::move(p));
    }
  };
  auto params = stdParams();
  params.msgCapacity = 2;
  const graph::TopologyView view(topo);
  MacEngine engine(view, params, std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<FatSender>(); }, 1);
  EXPECT_THROW(engine.run(), Error);
}

TEST(MacEngine, StandardModelForbidsEnhancedApis) {
  const auto topo = gen::identityDual(gen::line(2));
  class Cheater : public Process {
   public:
    void onWake(Context& ctx) override { ctx.setTimerAfter(1); }
  };
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(), std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<Cheater>(); }, 1);
  EXPECT_THROW(engine.run(), Error);
}

TEST(MacEngine, StandardModelForbidsClockAndAbort) {
  const auto topo = gen::identityDual(gen::line(2));
  class ClockCheater : public Process {
   public:
    void onWake(Context& ctx) override { (void)ctx.now(); }
  };
  const graph::TopologyView view(topo);
  MacEngine e1(view, stdParams(), std::make_unique<FastScheduler>(),
               [](NodeId) { return std::make_unique<ClockCheater>(); }, 1);
  EXPECT_THROW(e1.run(), Error);

  class AbortCheater : public Process {
   public:
    void onWake(Context& ctx) override {
      Packet p;
      ctx.bcast(std::move(p));
      ctx.abortBcast();
    }
  };
  MacEngine e2(view, stdParams(), std::make_unique<FastScheduler>(),
               [](NodeId) { return std::make_unique<AbortCheater>(); }, 1);
  EXPECT_THROW(e2.run(), Error);
}

// --- scheduler plan validation ---------------------------------------------

/// Scheduler returning a fixed broken plan (configured per test).
class BrokenScheduler : public Scheduler {
 public:
  enum class Flaw { kLateAck, kMissGNeighbor, kDuplicateTarget, kOutsideGp,
                    kDeliveryAfterAck };
  explicit BrokenScheduler(Flaw flaw) : flaw_(flaw) {}

  DeliveryPlan planBcast(const Instance& inst) override {
    const MacParams& p = engine_->params();
    const auto& topo = engine_->topology();
    DeliveryPlan plan;
    plan.ackAt = inst.bcastAt + p.fack;
    for (NodeId j : topo.g().neighbors(inst.sender)) {
      plan.deliveries.push_back({j, inst.bcastAt + 1});
    }
    switch (flaw_) {
      case Flaw::kLateAck:
        plan.ackAt = inst.bcastAt + p.fack + 1;
        break;
      case Flaw::kMissGNeighbor:
        plan.deliveries.pop_back();
        break;
      case Flaw::kDuplicateTarget:
        plan.deliveries.push_back(plan.deliveries.front());
        break;
      case Flaw::kOutsideGp: {
        // Line 0-1-2-3: node 0 broadcasting to node 3 is outside G'.
        plan.deliveries.push_back({3, inst.bcastAt + 1});
        break;
      }
      case Flaw::kDeliveryAfterAck:
        plan.deliveries.front().at = plan.ackAt + 1;
        break;
    }
    return plan;
  }

 private:
  Flaw flaw_;
};

class SendOnce : public Process {
 public:
  void onWake(Context& ctx) override {
    if (ctx.id() != 0) return;
    Packet p;
    ctx.bcast(std::move(p));
  }
};

TEST(MacEngine, RejectsIllegalPlans) {
  const auto topo = gen::identityDual(gen::line(4));
  using Flaw = BrokenScheduler::Flaw;
  for (Flaw flaw : {Flaw::kLateAck, Flaw::kMissGNeighbor,
                    Flaw::kDuplicateTarget, Flaw::kOutsideGp,
                    Flaw::kDeliveryAfterAck}) {
    const graph::TopologyView view(topo);
    MacEngine engine(view, stdParams(),
                     std::make_unique<BrokenScheduler>(flaw),
                     [](NodeId) { return std::make_unique<SendOnce>(); }, 1);
    EXPECT_THROW(engine.run(), Error) << "flaw " << static_cast<int>(flaw);
  }
}

// --- delivery & ack ordering -------------------------------------------------

TEST(MacEngine, AckArrivesAfterAllGNeighborsReceive) {
  const auto topo = gen::identityDual(gen::star(6));
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(), std::make_unique<SlowAckScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(1);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
  EXPECT_EQ(engine.stats().acks, 1u);
  EXPECT_EQ(engine.stats().rcvs, 5u);
  EXPECT_EQ(engine.instance(0).termAt, stdParams().fack);
}

TEST(MacEngine, ProgressGuardForcesDeliveryUnderAdversary) {
  // With G' = G the adversary has no junk: the guard must force the
  // real message within Fprog even though the plan says Fack.
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(1);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  ASSERT_EQ(testutil::rcvReceivers(engine.trace(), 0).size(), 1u);
  // Forced at the progress deadline: bcast(0) + fprog.
  const auto& recs = engine.trace().records();
  for (const auto& rec : recs) {
    if (rec.kind == sim::TraceKind::kRcv) EXPECT_EQ(rec.t, 4);
  }
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(MacEngine, BackToBackBroadcastsRespectAckBound) {
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(2, 16), std::make_unique<SlowAckScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(5);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().bcasts, 5u);
  EXPECT_EQ(engine.now(), 5 * 16);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

// --- enhanced model -----------------------------------------------------------

/// Broadcasts every `period` ticks and aborts at the next boundary if
/// the ack has not arrived (the FMMB round pattern).
class RoundSender : public Process {
 public:
  RoundSender(Time period, int rounds) : period_(period), rounds_(rounds) {}
  void onWake(Context& ctx) override {
    act(ctx, 0);
    ctx.setTimerAt(period_);
  }
  void onTimer(Context& ctx, TimerId) override {
    if (ctx.busy()) ctx.abortBcast();
    ++round_;
    if (round_ >= rounds_) return;
    act(ctx, round_);
    ctx.setTimerAt((round_ + 1) * period_);
  }

 private:
  void act(Context& ctx, int round) {
    if (ctx.id() != 0) return;
    Packet p;
    p.tag = round;
    ctx.bcast(std::move(p));
  }
  Time period_;
  int rounds_;
  int round_ = 0;
};

TEST(MacEngine, EnhancedRoundsAbortAndStayWellFormed) {
  const auto topo = gen::identityDual(gen::line(3));
  const auto params = enhParams(4, 64);
  const Time period = params.fprog + 1;
  const graph::TopologyView view(topo);
  MacEngine engine(view, params, std::make_unique<AdversarialScheduler>(),
                   [&](NodeId) {
                     return std::make_unique<RoundSender>(period, 6);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().bcasts, 6u);
  EXPECT_EQ(engine.stats().aborts, 6u);  // adversary acks at Fack > round
  // Node 1 (G-neighbor of the sender) received something every round.
  EXPECT_GE(engine.stats().rcvs, 6u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(MacEngine, AbortCancelsLateDeliveries) {
  const auto topo = gen::identityDual(gen::line(2));
  class AbortEarly : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      Packet p;
      ctx.bcast(std::move(p));
      ctx.setTimerAfter(2);
    }
    void onTimer(Context& ctx, TimerId) override {
      if (ctx.busy()) ctx.abortBcast();
    }
  };
  // SlowAck plans the delivery at fprog = 4 > abort time 2.
  const graph::TopologyView view(topo);
  MacEngine engine(view, enhParams(4, 32), std::make_unique<SlowAckScheduler>(),
                   [](NodeId) { return std::make_unique<AbortEarly>(); }, 1);
  engine.run();
  EXPECT_EQ(engine.stats().aborts, 1u);
  EXPECT_EQ(engine.stats().rcvs, 0u);
  EXPECT_EQ(engine.stats().acks, 0u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(MacEngine, TimersFireAndCancel) {
  const auto topo = gen::identityDual(gen::line(2));
  class TimerUser : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      keep_ = ctx.setTimerAfter(5);
      drop_ = ctx.setTimerAfter(7);
      EXPECT_TRUE(ctx.cancelTimer(drop_));
      EXPECT_FALSE(ctx.cancelTimer(drop_));
    }
    void onTimer(Context& ctx, TimerId id) override {
      EXPECT_EQ(id, keep_);
      EXPECT_EQ(ctx.now(), 5);
      ++fires_;
    }
    int fires_ = 0;

   private:
    TimerId keep_ = kNoTimer;
    TimerId drop_ = kNoTimer;
  };
  TimerUser* p0 = nullptr;
  const graph::TopologyView view(topo);
  MacEngine engine(view, enhParams(), std::make_unique<FastScheduler>(),
                   [&p0](NodeId node) {
                     auto p = std::make_unique<TimerUser>();
                     if (node == 0) p0 = p.get();
                     return p;
                   },
                   1);
  engine.run();
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->fires_, 1);
}

TEST(MacEngine, EnhancedContextExposesConstants) {
  const auto topo = gen::identityDual(gen::line(2));
  class Reader : public Process {
   public:
    void onWake(Context& ctx) override {
      EXPECT_EQ(ctx.fprog(), 4);
      EXPECT_EQ(ctx.fack(), 32);
      EXPECT_EQ(ctx.n(), 2);
      EXPECT_EQ(ctx.gNeighbors().size(), 1u);
      EXPECT_TRUE(ctx.isGNeighbor(1 - ctx.id()));
    }
  };
  const graph::TopologyView view(topo);
  MacEngine engine(view, enhParams(4, 32), std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<Reader>(); }, 1);
  engine.run();
}

TEST(MacEngine, UnreliableDeliveryReachesGPrimeOnlyNeighbors) {
  Rng rng(3);
  const auto topo = gen::withArbitraryNoise(gen::line(4), 2, rng);
  const graph::TopologyView view(topo);
  MacEngine engine(view, stdParams(), std::make_unique<FastScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(1);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  EXPECT_EQ(testutil::rcvReceivers(engine.trace(), 0).size(),
            topo.gPrime().neighbors(0).size());
}

// Regression: an instance whose link vanishes mid-flight must still
// ack on schedule.  The edge {0, 1} drops before the slow-ack
// scheduler's planned delivery, so the delivery is cancelled and the
// acknowledgment guarantee for node 1 is voided — but the ack event
// itself survives the boundary, the sender's automaton continues
// (here: bcasts its second packet), and the epoch-aware checker
// accepts the trace that a static checker would reject.
TEST(MacEngine, AckInFlightAcrossEpochBoundary) {
  const auto base = gen::identityDual(gen::line(2));
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {2, {{graph::TopologyEvent::Kind::kEdgeDown, 0, 1, false}}});
  const graph::TopologyView view(base, dynamics);

  // slow-ack: delivery at bcast+fprog (4), ack at bcast+fack (32);
  // the boundary at t=2 lands squarely between bcast and both.
  MacEngine engine(view, stdParams(), std::make_unique<SlowAckScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(2);
                     return std::make_unique<Idle>();
                   },
                   1);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);

  // Both bcasts acked; the first delivered to nobody (link gone before
  // its delivery), the second planned against the empty neighborhood.
  EXPECT_EQ(engine.stats().bcasts, 2u);
  EXPECT_EQ(engine.stats().acks, 2u);
  EXPECT_EQ(engine.stats().rcvs, 0u);
  EXPECT_EQ(engine.instance(0).termAt, 32);

  // The epoch transition is on the trace, and the epoch-aware checker
  // is green while the static base-topology checker demands the rcv
  // node 1 never got.
  bool sawEpoch = false;
  for (const auto& record : engine.trace().records()) {
    sawEpoch = sawEpoch || record.kind == sim::TraceKind::kEpoch;
  }
  EXPECT_TRUE(sawEpoch);
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
  EXPECT_FALSE(
      checkTrace(graph::TopologyView(base), engine.params(), engine.trace())
          .ok);
}

// The boundary scrub walks each instance's pending deliveries in place
// and drops exactly the ones whose E' link vanished.  Two of a star
// center's five leaves lose their link before the slow-ack delivery
// time: those two pending deliveries are cancelled, the other three
// (interleaved with them in the pending list) still fire on time.
TEST(MacEngine, EpochScrubCancelsOnlyVanishedLinkDeliveries) {
  const auto base = gen::identityDual(gen::star(6));
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {2, {{graph::TopologyEvent::Kind::kEdgeDown, 0, 2, false},
           {graph::TopologyEvent::Kind::kEdgeDown, 0, 4, false}}});
  const graph::TopologyView view(base, dynamics);

  MacEngine engine(view, stdParams(), std::make_unique<SlowAckScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(1);
                     return std::make_unique<Idle>();
                   },
                   1);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);

  std::vector<NodeId> receivers;
  for (const auto& record : engine.trace().records()) {
    if (record.kind != sim::TraceKind::kRcv) continue;
    EXPECT_EQ(record.t, 4);
    receivers.push_back(record.node);
  }
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(engine.stats().acks, 1u);
  EXPECT_TRUE(engine.isTombstone(0));  // nothing left pending
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

// The scrub also covers aborted instances: a delivery kept alive by
// the epsAbort grace window is cancelled when its link vanishes inside
// that window.  Without the boundary the same delivery fires.
TEST(MacEngine, EpochScrubCancelsAbortGraceDeliveries) {
  class AbortEarly : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      Packet p;
      ctx.bcast(std::move(p));
      ctx.setTimerAfter(2);
    }
    void onTimer(Context& ctx, TimerId) override {
      if (ctx.busy()) ctx.abortBcast();
    }
  };
  MacParams params = enhParams(4, 32);
  params.epsAbort = 8;  // the slow-ack delivery at 4 survives the abort at 2
  const auto factory = [](NodeId) { return std::make_unique<AbortEarly>(); };

  const auto base = gen::identityDual(gen::line(2));
  const graph::TopologyView baseView(base);
  MacEngine still(baseView, params, std::make_unique<SlowAckScheduler>(),
                  factory, 1);
  still.run();
  EXPECT_EQ(still.stats().aborts, 1u);
  EXPECT_EQ(still.stats().rcvs, 1u);

  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {3, {{graph::TopologyEvent::Kind::kEdgeDown, 0, 1, false}}});
  const graph::TopologyView view(base, dynamics);
  MacEngine dropped(view, params, std::make_unique<SlowAckScheduler>(),
                    factory, 1);
  dropped.run();
  EXPECT_EQ(dropped.stats().aborts, 1u);
  EXPECT_EQ(dropped.stats().rcvs, 0u);
  EXPECT_TRUE(dropped.isTombstone(0));  // nothing left pending
  EXPECT_TRUE(checkTrace(view, dropped.params(), dropped.trace()).ok);
}

// Engines only read their view, so two engines can share one; and a
// run driven through the MacLayer seam (as core::Experiment drives
// every backend) is the run driven on the engine directly.
TEST(MacEngine, EnginesSharingOneViewAgreeThroughTheLayerSeam) {
  Rng rng(5);
  const auto topo = gen::withArbitraryNoise(gen::grid(4, 4), 2, rng);
  const graph::TopologyView view(topo);
  const auto factory = [](NodeId node) -> std::unique_ptr<Process> {
    if (node % 3 == 0) return std::make_unique<ChainSender>(2);
    return std::make_unique<Idle>();
  };
  MacEngine direct(view, stdParams(), std::make_unique<RandomScheduler>(),
                   factory, 9);
  MacEngine seamEngine(view, stdParams(), std::make_unique<RandomScheduler>(),
                       factory, 9);
  MacLayer& seam = seamEngine;
  direct.run();
  EXPECT_EQ(seam.run(), sim::RunStatus::kDrained);

  const auto& a = direct.trace().records();
  const auto& b = seam.trace().records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sim::toString(a[i]), sim::toString(b[i])) << "record " << i;
  }
  EXPECT_EQ(direct.stats().rcvs, seam.stats().rcvs);
  EXPECT_EQ(direct.stats().forcedRcvs, seam.stats().forcedRcvs);
  EXPECT_EQ(direct.now(), seam.now());
}

// --- instance lifecycle ------------------------------------------------------

// Regression: the Packet& handed to onReceive / onAck stays valid when
// the callback bcasts.  Node 1's echo is the engine's second instance
// and node 0's re-send from onAck its third, so each grows the
// instance storage exactly while a packet is on loan to a callback;
// storage that moved its elements would leave `packet` dangling (a
// heap-use-after-free under ASan).
TEST(MacEngine, CallbackPacketSurvivesReentrantBcast) {
  struct Seen {
    PacketKind kind;
    NodeId sender;
    std::uint64_t bits;
    std::vector<MsgId> msgs;
  };
  class Echo : public Process {
   public:
    explicit Echo(std::vector<Seen>& seen) : seen_(seen) {}
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      Packet p;
      p.kind = PacketKind::kCustom;
      p.bits = 0xC0FFEE;
      p.msgs = {7, 9};
      ctx.bcast(std::move(p));
    }
    void onReceive(Context& ctx, const Packet& packet) override {
      if (ctx.id() != 1 || done_) return;
      done_ = true;
      ctx.bcast(Packet{});
      seen_.push_back({packet.kind, packet.sender, packet.bits, packet.msgs});
    }
    void onAck(Context& ctx, const Packet& packet) override {
      if (ctx.id() != 0 || done_) return;
      done_ = true;
      ctx.bcast(Packet{});
      seen_.push_back({packet.kind, packet.sender, packet.bits, packet.msgs});
    }

   private:
    std::vector<Seen>& seen_;
    bool done_ = false;
  };
  std::vector<Seen> seen;
  MacParams params = stdParams();
  params.msgCapacity = 2;
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  MacEngine engine(view, params, std::make_unique<FastScheduler>(),
                   [&seen](NodeId) { return std::make_unique<Echo>(seen); },
                   1);
  engine.run();
  EXPECT_EQ(engine.instances().size(), 3u);
  ASSERT_EQ(seen.size(), 2u);  // node 1's rcv, then node 0's ack
  for (const Seen& s : seen) {
    EXPECT_EQ(s.kind, PacketKind::kCustom);
    EXPECT_EQ(s.sender, 0);
    EXPECT_EQ(s.bits, 0xC0FFEEu);
    EXPECT_EQ(s.msgs, (std::vector<MsgId>{7, 9}));
  }
}

/// Plans each bcast's deliveries at fixed offsets from the bcast, with
/// the ack at Fack.
class FixedPlanScheduler : public Scheduler {
 public:
  explicit FixedPlanScheduler(std::vector<PlannedDelivery> offsets)
      : offsets_(std::move(offsets)) {}
  DeliveryPlan planBcast(const Instance& inst) override {
    DeliveryPlan plan;
    plan.ackAt = inst.bcastAt + engine_->params().fack;
    for (PlannedDelivery d : offsets_) {
      d.at += inst.bcastAt;
      plan.deliveries.push_back(d);
    }
    return plan;
  }

 private:
  std::vector<PlannedDelivery> offsets_;
};

/// Node 0 broadcasts at t = 0 and aborts at t = 2.
class AbortAtTwo : public Process {
 public:
  void onWake(Context& ctx) override {
    if (ctx.id() != 0) return;
    ctx.bcast(Packet{});
    ctx.setTimerAfter(2);
  }
  void onTimer(Context& ctx, TimerId) override {
    if (ctx.busy()) ctx.abortBcast();
  }
};

// An abort drops the deliveries planned past now + epsAbort at once;
// the ones inside the grace window stay pending and still fire, and
// the instance becomes a tombstone only after the last of them.
TEST(MacEngine, AbortKeepsGraceDeliveriesAndDropsLaterOnes) {
  MacParams params = enhParams(4, 32);
  params.epsAbort = 4;  // abort at 2: grace through t = 6
  const auto topo = gen::identityDual(gen::star(3));
  const graph::TopologyView view(topo);
  MacEngine engine(
      view, params,
      std::make_unique<FixedPlanScheduler>(
          std::vector<PlannedDelivery>{{1, 3}, {2, 20}}),
      [](NodeId) { return std::make_unique<AbortAtTwo>(); }, 1);

  engine.run(/*timeLimit=*/2);
  EXPECT_EQ(engine.stats().aborts, 1u);
  ASSERT_FALSE(engine.isTombstone(0));  // grace: a delivery is pending
  const Instance& grace = engine.body(0);
  EXPECT_TRUE(grace.terminated);
  ASSERT_EQ(grace.pending.size(), 1u);
  EXPECT_EQ(grace.pending.front().target, 1);
  EXPECT_EQ(grace.pending.front().at, 3);

  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(testutil::rcvReceivers(engine.trace(), 0),
            (std::vector<NodeId>{1}));
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv) {
      EXPECT_EQ(rec.t, 3);
    }
  }
  EXPECT_TRUE(engine.isTombstone(0));
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

// A tombstone's body is gone, but its record still answers sender,
// bcast and termination for post-run readers.
TEST(MacEngine, TombstoneKeepsItsRecord) {
  MacParams params = enhParams(4, 32);
  params.epsAbort = 4;
  const auto topo = gen::identityDual(gen::star(3));
  const graph::TopologyView view(topo);
  MacEngine aborted(
      view, params,
      std::make_unique<FixedPlanScheduler>(
          std::vector<PlannedDelivery>{{1, 3}, {2, 20}}),
      [](NodeId) { return std::make_unique<AbortAtTwo>(); }, 1);
  aborted.run();
  ASSERT_TRUE(aborted.isTombstone(0));
  EXPECT_THROW(aborted.body(0), Error);
  const InstanceRecord& a = aborted.instance(0);
  EXPECT_EQ(a.sender, 0);
  EXPECT_EQ(a.bcastAt, 0);
  EXPECT_EQ(a.termAt, 2);
  EXPECT_TRUE(a.aborted);

  MacEngine acked(view, stdParams(), std::make_unique<SlowAckScheduler>(),
                  [](NodeId node) -> std::unique_ptr<Process> {
                    if (node == 2) return std::make_unique<ChainSender>(3);
                    return std::make_unique<Idle>();
                  },
                  1);
  acked.run();
  ASSERT_EQ(acked.instances().size(), 3u);
  for (InstanceId id : {0, 1, 2}) {
    EXPECT_TRUE(acked.isTombstone(id));
    const InstanceRecord& r = acked.instance(id);
    EXPECT_EQ(r.sender, 2);
    EXPECT_EQ(r.bcastAt, id * 32);
    EXPECT_EQ(r.termAt, (id + 1) * 32);
    EXPECT_FALSE(r.aborted);
  }
  // Each bcast from the ack callback overlaps the instance it replaces
  // (that body is retired once the callback returns), so two bodies
  // serve all three instances: the third reuses the first one's slot.
  EXPECT_EQ(acked.bodyPoolHighWater(), 2u);
}

// The engine holds bodies for live and grace instances only.  On a
// 1,000-node grey field the pool never outgrows the largest number of
// instances whose [bcast, termination] span covers one tick — a bound
// that does not grow with the run's total instance count.
TEST(MacEngine, BodyPoolStaysWithinPeakLiveInstances) {
  const NodeId n = 1000;
  const int k = 8;
  Rng rng(2234);
  const auto topo = gen::greyZoneField(n, 13.0, 1.5, 0.3, rng);
  core::MmbWorkload workload;
  workload.k = k;
  for (int i = 0; i < k; ++i) {
    workload.arrivals.push_back({static_cast<NodeId>(i * n / k),
                                 static_cast<MsgId>(i), 0});
  }
  core::RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = core::SchedulerKind::kRandom;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload, config);
  ASSERT_TRUE(experiment.run().solved);
  const MacEngine& engine = experiment.engine();

  // Sweep the closed spans; a span ending at t is counted at t, so a
  // bcast made from the ack callback of the instance it replaces
  // overlaps it.  Instances still live at the end never close.
  std::vector<std::pair<Time, int>> edges;
  for (const InstanceRecord& r : engine.instances()) {
    edges.emplace_back(r.bcastAt, +1);
    if (r.termAt != kTimeNever) edges.emplace_back(r.termAt + 1, -1);
  }
  std::sort(edges.begin(), edges.end());
  int open = 0;
  int peak = 0;
  for (const auto& edge : edges) {
    open += edge.second;
    peak = std::max(peak, open);
  }
  EXPECT_LE(engine.bodyPoolHighWater(), static_cast<std::size_t>(peak));
  // A node has at most one live instance, plus the one whose ack
  // callback is running; the run creates several times that many.
  EXPECT_LE(engine.bodyPoolHighWater(), static_cast<std::size_t>(n) + 1);
  EXPECT_LT(engine.bodyPoolHighWater() * 4, engine.instances().size());
}

}  // namespace
}  // namespace ammb::mac
