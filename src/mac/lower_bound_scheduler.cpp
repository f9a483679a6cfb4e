#include "mac/lower_bound_scheduler.h"

#include <algorithm>

namespace ammb::mac {

LowerBoundScheduler::LowerBoundScheduler(int lineLength, MsgId m0, MsgId m1)
    : lineLength_(lineLength), m0_(m0), m1_(m1) {
  AMMB_REQUIRE(lineLength >= 2, "network C requires line length >= 2");
}

void LowerBoundScheduler::attach(MacEngine& engine) {
  Scheduler::attach(engine);
  AMMB_REQUIRE(engine.n() == 2 * lineLength_,
               "LowerBoundScheduler is bound to lowerBoundNetworkC(D)");
  hasOwnMsg_.assign(static_cast<std::size_t>(engine.n()), false);
  // The environment hands m0 to a_0 and m1 to b_0.
  hasOwnMsg_[static_cast<std::size_t>(aNode(0))] = true;
  hasOwnMsg_[static_cast<std::size_t>(bNode(0))] = true;
}

bool LowerBoundScheduler::isFrontier(const Instance& instance) const {
  if (instance.packet.kind != PacketKind::kData) return false;
  if (instance.packet.msgs.size() != 1) return false;
  const MsgId m = instance.packet.msgs.front();
  const int i = lineIndex(instance.sender);
  if (i + 1 >= lineLength_) return false;
  if (isANode(instance.sender) && m == m0_) {
    return !hasOwnMsg_[static_cast<std::size_t>(aNode(i + 1))];
  }
  if (!isANode(instance.sender) && m == m1_) {
    return !hasOwnMsg_[static_cast<std::size_t>(bNode(i + 1))];
  }
  return false;
}

DeliveryPlan LowerBoundScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  const Time t0 = instance.bcastAt;
  const NodeId u = instance.sender;
  const int i = lineIndex(u);
  const auto& topo = engine_->topology();

  DeliveryPlan plan;
  const bool frontier = isFrontier(instance);
  const Time gAt = frontier ? t0 + p.fack : t0;
  plan.ackAt = gAt;
  for (NodeId j : topo.g().neighbors(u)) plan.deliveries.push_back({j, gAt});

  if (frontier) {
    // Cross deliveries over the unreliable diagonals satisfy the
    // progress obligations of the *opposite* frontier's line neighbors
    // with messages that are useless there (Lemma 3.20's schedule).
    const Time crossAt = t0 + p.fprog;
    const bool fromA = isANode(u);
    if (i + 1 < lineLength_) {
      plan.deliveries.push_back(
          {fromA ? bNode(i + 1) : aNode(i + 1), crossAt});
    }
    if (i - 1 >= 0) {
      plan.deliveries.push_back(
          {fromA ? bNode(i - 1) : aNode(i - 1), crossAt});
    }
  }

  // Track which nodes will have received their own line's message.
  const MsgId m = instance.packet.msgs.empty() ? kNoMsg
                                               : instance.packet.msgs.front();
  if (m == m0_ || m == m1_) {
    for (NodeId j : topo.g().neighbors(u)) {
      const bool own = (isANode(j) && m == m0_) || (!isANode(j) && m == m1_);
      if (own) hasOwnMsg_[static_cast<std::size_t>(j)] = true;
    }
  }
  return plan;
}

InstanceId LowerBoundScheduler::pickProgressDelivery(
    NodeId receiver, const std::vector<InstanceId>& candidates) {
  // Prefer deliveries over the cross (unreliable) edges: they carry the
  // opposite line's message, which never advances the receiver's own
  // broadcast problem.
  for (InstanceId id : candidates) {
    const Instance& inst = engine_->body(id);
    if (isANode(inst.sender) != isANode(receiver)) return id;
  }
  const ProtocolOracle* oracle = engine_->oracle();
  if (oracle != nullptr) {
    for (InstanceId id : candidates) {
      if (oracle->uselessFor(receiver, engine_->body(id).packet)) {
        return id;
      }
    }
  }
  return candidates.front();
}

}  // namespace ammb::mac
