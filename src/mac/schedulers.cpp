#include "mac/schedulers.h"

#include <algorithm>

namespace ammb::mac {

namespace {
/// Deliveries to every G-neighbor at `gAt`, plus (optionally) every
/// G'-only neighbor at `gpAt` (skipped when gpAt == kTimeNever).
DeliveryPlan uniformPlan(const MacEngine& engine, const Instance& instance,
                         Time gAt, Time gpAt, Time ackAt) {
  DeliveryPlan plan;
  plan.ackAt = ackAt;
  const graph::CsrSnapshot& csr = engine.csr();
  const NodeId s = instance.sender;
  const graph::CsrSnapshot::Span pNbrs = csr.pNeighbors(s);
  plan.deliveries.reserve(pNbrs.size());
  for (NodeId j : csr.gNeighbors(s)) {
    plan.deliveries.push_back({j, gAt});
  }
  if (gpAt != kTimeNever) {
    for (NodeId j : pNbrs) {
      if (!csr.hasGEdge(s, j)) plan.deliveries.push_back({j, gpAt});
    }
  }
  return plan;
}
}  // namespace

// --- FastScheduler ----------------------------------------------------------

FastScheduler::FastScheduler() : FastScheduler(Options{}) {}

FastScheduler::FastScheduler(Options options) : options_(options) {}

DeliveryPlan FastScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  const Time delay = std::min(options_.delay, p.fprog);
  const Time at = instance.bcastAt + delay;
  return uniformPlan(*engine_, instance, at,
                     options_.deliverGPrime ? at : kTimeNever, at);
}

// --- RandomScheduler --------------------------------------------------------

RandomScheduler::RandomScheduler() : RandomScheduler(Options{}) {}

RandomScheduler::RandomScheduler(Options options) : options_(options) {
  AMMB_REQUIRE(options.pUnreliable >= 0.0 && options.pUnreliable <= 1.0,
               "pUnreliable must be a probability");
}

DeliveryPlan RandomScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  Rng& rng = engine_->schedulerRng();
  const Time t0 = instance.bcastAt;
  DeliveryPlan plan;
  const graph::CsrSnapshot& csr = engine_->csr();
  const NodeId s = instance.sender;
  const graph::CsrSnapshot::Span pNbrs = csr.pNeighbors(s);
  plan.deliveries.reserve(pNbrs.size());
  Time latestG = t0;
  for (NodeId j : csr.gNeighbors(s)) {
    const Time at = t0 + rng.uniformInt(1, p.fprog);
    latestG = std::max(latestG, at);
    plan.deliveries.push_back({j, at});
  }
  plan.ackAt = rng.uniformInt(latestG, t0 + p.fack);
  for (NodeId j : pNbrs) {
    if (csr.hasGEdge(s, j)) continue;
    if (!rng.bernoulli(options_.pUnreliable)) continue;
    plan.deliveries.push_back({j, rng.uniformInt(t0, plan.ackAt)});
  }
  return plan;
}

// --- SlowAckScheduler -------------------------------------------------------

DeliveryPlan SlowAckScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  return uniformPlan(*engine_, instance, instance.bcastAt + p.fprog,
                     kTimeNever, instance.bcastAt + p.fack);
}

// --- AdversarialScheduler ---------------------------------------------------

AdversarialScheduler::AdversarialScheduler()
    : AdversarialScheduler(Options{}) {}

AdversarialScheduler::AdversarialScheduler(Options options)
    : options_(options) {}

DeliveryPlan AdversarialScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  const Time ackAt = instance.bcastAt + p.fack;
  // Reliable deliveries at the last legal instant; the progress guard
  // will preempt them only when the model leaves the adversary no
  // useless alternative.
  DeliveryPlan plan =
      uniformPlan(*engine_, instance, ackAt, kTimeNever, ackAt);
  if (options_.stuffUnreliable) {
    const graph::CsrSnapshot& csr = engine_->csr();
    const NodeId s = instance.sender;
    for (NodeId j : csr.pNeighbors(s)) {
      if (!csr.hasGEdge(s, j)) {
        plan.deliveries.push_back({j, instance.bcastAt + 1});
      }
    }
  }
  return plan;
}

InstanceId AdversarialScheduler::pickProgressDelivery(
    NodeId receiver, const std::vector<InstanceId>& candidates) {
  const ProtocolOracle* oracle = engine_->oracle();
  const graph::CsrSnapshot& csr = engine_->csr();
  // Preference order: (1) useless for the protocol, (2) arriving over
  // an unreliable edge, (3) oldest.  Candidates are sorted by id.
  InstanceId bestUseless = kNoInstance;
  InstanceId bestCross = kNoInstance;
  for (InstanceId id : candidates) {
    const Instance& inst = engine_->body(id);
    if (oracle != nullptr && bestUseless == kNoInstance &&
        oracle->uselessFor(receiver, inst.packet)) {
      bestUseless = id;
    }
    if (bestCross == kNoInstance &&
        !csr.hasGEdge(inst.sender, receiver)) {
      bestCross = id;
    }
  }
  if (bestUseless != kNoInstance) return bestUseless;
  if (bestCross != kNoInstance) return bestCross;
  return candidates.front();
}

}  // namespace ammb::mac
