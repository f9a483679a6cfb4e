#include "core/bmmb.h"

#include <algorithm>

namespace ammb::core {

void BmmbProcess::onArrive(mac::Context& ctx, MsgId msg) { get(ctx, msg); }

void BmmbProcess::onReceive(mac::Context& ctx, const mac::Packet& packet) {
  for (MsgId m : packet.msgs) get(ctx, m);
}

void BmmbProcess::onAck(mac::Context& ctx, const mac::Packet& packet) {
  AMMB_ASSERT(!queueEmpty());
  AMMB_ASSERT(packet.msgs.size() == 1 && packet.msgs.front() == queue_[head_]);
  sent_.insert(queue_[head_]);
  popFront();
  maybeSend(ctx);
}

void BmmbProcess::popFront() {
  ++head_;
  if (queueEmpty()) {
    queue_.clear();
    head_ = 0;
  }
}

void BmmbProcess::onEpochChange(mac::Context& ctx,
                                const mac::EpochChange& change) {
  // Retransmit-on-recovery: new G capacity means some neighbor may
  // have missed part of the flood — a message acknowledged while that
  // neighbor's link was down was covered by a requiredG set that never
  // contained it, so nothing in the base protocol will ever re-offer
  // it.  Re-enqueue the whole `sent` set (receivers dedup, so already-
  // covered messages cost one useless packet each at worst), ascending
  // MsgId for a deterministic re-arm order, one budget unit apiece.
  if (reaction_.none() || !change.gainedG) return;
  std::vector<MsgId> rearm = sent_.sorted();
  // The in-flight queue head is as stale as the sent set: its delivery
  // plan predates the boundary, so its requiredG never contained the
  // recovered neighbor, and its ack will move it into `sent` without
  // that neighbor ever being offered it.  Re-arm it too (the back copy
  // is re-broadcast under the new epoch after the current ack lands).
  const bool inFlight = ctx.busy() && !queueEmpty();
  if (inFlight) rearm.push_back(queue_[head_]);
  std::sort(rearm.begin(), rearm.end());
  bool armed = false;
  for (MsgId m : rearm) {
    // Dedup against pending queue entries; the in-flight head does not
    // count as pending (it is the stale transmission being re-armed).
    const auto pendingBegin =
        queue_.begin() + static_cast<std::ptrdiff_t>(head_ + (inFlight ? 1 : 0));
    if (std::find(pendingBegin, queue_.end(), m) != queue_.end()) continue;
    auto it = std::lower_bound(
        retriesLeft_.begin(), retriesLeft_.end(), m,
        [](const std::pair<MsgId, int>& e, MsgId id) { return e.first < id; });
    if (it == retriesLeft_.end() || it->first != m) {
      it = retriesLeft_.insert(it, {m, reaction_.retryBudget});
    }
    int& budget = it->second;
    if (budget <= 0) continue;
    --budget;
    queue_.push_back(m);
    ++retransmits_;
    armed = true;
  }
  if (armed) maybeSend(ctx);
}

void BmmbProcess::get(mac::Context& ctx, MsgId msg) {
  if (!rcvd_.insert(msg)) return;  // duplicate: discard
  ctx.deliver(msg);
  queue_.push_back(msg);
  maybeSend(ctx);
}

void BmmbProcess::maybeSend(mac::Context& ctx) {
  if (ctx.busy() || queueEmpty()) return;
  // The head of the queue is the in-flight message; non-FIFO
  // disciplines promote their pick to the head before sending.
  const auto front = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  switch (discipline_) {
    case QueueDiscipline::kFifo:
      break;
    case QueueDiscipline::kLifo:
      std::rotate(front, queue_.end() - 1, queue_.end());
      break;
    case QueueDiscipline::kRandom: {
      const auto i = static_cast<std::size_t>(ctx.rng().uniformInt(
          0, static_cast<std::int64_t>(queue_.size() - head_) - 1));
      std::swap(queue_[head_], queue_[head_ + i]);
      break;
    }
  }
  mac::Packet packet;
  packet.kind = mac::PacketKind::kData;
  packet.msgs = {queue_[head_]};
  ctx.bcast(std::move(packet));
}

mac::MacLayer::ProcessFactory BmmbSuite::factory() {
  return [this](NodeId node) {
    auto p = std::make_unique<BmmbProcess>(discipline_, reaction_);
    const auto i = static_cast<std::size_t>(node);
    if (i >= byNode_.size()) byNode_.resize(i + 1, nullptr);
    byNode_[i] = p.get();
    return p;
  };
}

std::uint64_t BmmbSuite::totalRetransmits() const {
  std::uint64_t total = 0;
  for (const BmmbProcess* process : byNode_) {
    if (process != nullptr) total += process->retransmits();
  }
  return total;
}

const BmmbProcess& BmmbSuite::process(NodeId node) const {
  const BmmbProcess* process = processOrNull(node);
  AMMB_REQUIRE(process != nullptr, "unknown node (engine not built yet?)");
  return *process;
}

const BmmbProcess* BmmbSuite::processOrNull(NodeId node) const {
  const auto i = static_cast<std::size_t>(node);
  return node >= 0 && i < byNode_.size() ? byNode_[i] : nullptr;
}

bool BmmbSuite::uselessFor(NodeId node, const mac::Packet& packet) const {
  const BmmbProcess* process = processOrNull(node);
  if (process == nullptr) return false;
  const MsgSet& rcvd = process->received();
  return std::all_of(packet.msgs.begin(), packet.msgs.end(),
                     [&rcvd](MsgId m) { return rcvd.contains(m); });
}

}  // namespace ammb::core
