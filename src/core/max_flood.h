// Max-flood / leader election on the standard abstract MAC layer.
//
// The paper's conclusion names leader election as a natural follow-up
// problem for these models.  This module implements the canonical
// building block: every node starts with a value (by default its id)
// and floods improvements — broadcast your best-known value, adopt any
// larger value you hear, rebroadcast after an improvement.  Eventually
// every node in a G-component knows the component's maximum, i.e., the
// leader's id.
//
// Properties (tested in tests/max_flood_test.cpp):
//   * monotone convergence under every scheduler — unreliable links can
//     only accelerate it, since stale deliveries carry dominated values;
//   * quiescence: each node broadcasts at most once per improvement,
//     and values improve at most n-1 times, so executions drain;
//   * time bound: the maximum reaches distance d after at most d
//     acknowledgment epochs, giving O(D Fack) worst case (a node may
//     have to finish a stale broadcast before forwarding the new max).
#pragma once

#include <functional>
#include <unordered_map>

#include "common/types.h"
#include "mac/engine.h"
#include "mac/process.h"

namespace ammb::core {

/// One max-flood automaton.
class MaxFloodProcess : public mac::Process {
 public:
  /// `value`: this node's initial value; kNoMsg (default) means "use
  /// the node id", which makes the flood a leader election.
  explicit MaxFloodProcess(std::int64_t value = -1) : best_(value) {}

  void onWake(mac::Context& ctx) override;
  void onReceive(mac::Context& ctx, const mac::Packet& packet) override;
  void onAck(mac::Context& ctx, const mac::Packet& packet) override;

  /// Best value known to this node (the leader id after convergence).
  std::int64_t best() const { return best_; }

 private:
  void send(mac::Context& ctx);

  std::int64_t best_;
  std::int64_t lastSent_ = -1;  ///< value carried by the last broadcast
};

/// Factory + registry for max-flood runs.
class MaxFloodSuite {
 public:
  /// initialValue(node) provides per-node start values; null means
  /// "node id" (leader election).
  using ValueFn = std::function<std::int64_t(NodeId)>;

  explicit MaxFloodSuite(ValueFn initialValue = nullptr)
      : initialValue_(std::move(initialValue)) {}

  mac::MacLayer::ProcessFactory factory() {
    return [this](NodeId node) {
      const std::int64_t value =
          initialValue_ ? initialValue_(node) : static_cast<std::int64_t>(node);
      auto p = std::make_unique<MaxFloodProcess>(value);
      byNode_[node] = p.get();
      return p;
    };
  }

  const MaxFloodProcess& process(NodeId node) const {
    auto it = byNode_.find(node);
    AMMB_REQUIRE(it != byNode_.end(), "unknown node (engine not built yet?)");
    return *it->second;
  }

 private:
  ValueFn initialValue_;
  std::unordered_map<NodeId, const MaxFloodProcess*> byNode_;
};

}  // namespace ammb::core
