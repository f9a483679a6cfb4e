// Tests for the lock-step round driver (core/rounds.h): boundary
// timing, boundary aborts, and standard-model rejection.
#include <gtest/gtest.h>

#include "core/rounds.h"
#include "graph/generators.h"
#include "mac/engine.h"
#include "mac/schedulers.h"
#include "test_util.h"

namespace ammb {
namespace {

namespace gen = graph::gen;
using testutil::enhParams;
using testutil::stdParams;

/// Records the time of every round start; broadcasts in even rounds.
class Recorder : public core::RoundedProcess {
 public:
  std::vector<Time> startTimes;
  int abortsSeen = 0;

 protected:
  void onRoundStart(mac::Context& ctx, std::int64_t round) override {
    startTimes.push_back(ctx.now());
    if (ctx.id() == 0 && round % 2 == 0 && round < 10) {
      mac::Packet p;
      p.tag = static_cast<std::int32_t>(round);
      ctx.bcast(std::move(p));
    }
  }
};

TEST(Rounds, BoundariesAreExactMultiplesOfFprogPlusOne) {
  const auto topo = gen::identityDual(gen::line(2));
  Recorder* r0 = nullptr;
  const graph::TopologyView view(topo);
  mac::MacEngine engine(view, enhParams(4, 64),
                        std::make_unique<mac::FastScheduler>(),
                        [&r0](NodeId node) {
                          auto p = std::make_unique<Recorder>();
                          if (node == 0) r0 = p.get();
                          return p;
                        },
                        1);
  const Time roundLen = 5;  // fprog + 1
  engine.run(roundLen * 8);
  ASSERT_NE(r0, nullptr);
  ASSERT_GE(r0->startTimes.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(r0->startTimes[i], static_cast<Time>(i) * roundLen);
  }
}

TEST(Rounds, SlowAcksAreAbortedAtTheBoundary) {
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  mac::MacEngine engine(view, enhParams(4, 64),
                        std::make_unique<mac::SlowAckScheduler>(),
                        [](NodeId) { return std::make_unique<Recorder>(); },
                        1);
  engine.run(5 * 12);
  // Broadcasts in rounds 0,2,4,6,8: each took the full round and was
  // aborted at the boundary (the slow ack would only come at 64).
  EXPECT_EQ(engine.stats().bcasts, 5u);
  EXPECT_EQ(engine.stats().aborts, 5u);
  EXPECT_EQ(engine.stats().acks, 0u);
  // The slow-ack deliveries at fprog=4 still landed inside each round.
  EXPECT_EQ(engine.stats().rcvs, 5u);
}

TEST(Rounds, FastAcksNeedNoAbort) {
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  mac::MacEngine engine(view, enhParams(4, 64),
                        std::make_unique<mac::FastScheduler>(),
                        [](NodeId) { return std::make_unique<Recorder>(); },
                        1);
  engine.run(5 * 12);
  EXPECT_EQ(engine.stats().aborts, 0u);
  EXPECT_EQ(engine.stats().acks, engine.stats().bcasts);
}

TEST(Rounds, RequiresEnhancedModel) {
  const auto topo = gen::identityDual(gen::line(2));
  const graph::TopologyView view(topo);
  mac::MacEngine engine(view, stdParams(4, 64),
                        std::make_unique<mac::FastScheduler>(),
                        [](NodeId) { return std::make_unique<Recorder>(); },
                        1);
  // RoundedProcess::onWake calls ctx.fprog(), an enhanced-only API.
  EXPECT_THROW(engine.run(), Error);
}

}  // namespace
}  // namespace ammb
