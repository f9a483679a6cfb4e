#include "mac/engine.h"

#include <algorithm>
#include <utility>

namespace ammb::mac {

// ---------------------------------------------------------------------------
// Scheduler default behaviour
// ---------------------------------------------------------------------------

InstanceId Scheduler::pickProgressDelivery(
    NodeId receiver, const std::vector<InstanceId>& candidates) {
  (void)receiver;
  AMMB_ASSERT(!candidates.empty());
  return candidates.front();
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

NodeId Context::n() const { return layer_.n(); }

const std::vector<NodeId>& Context::gNeighbors() const {
  return layer_.topology().g().neighbors(node_);
}

const std::vector<NodeId>& Context::gPrimeNeighbors() const {
  return layer_.topology().gPrime().neighbors(node_);
}

bool Context::isGNeighbor(NodeId v) const {
  return layer_.topology().g().hasEdge(node_, v);
}

Rng& Context::rng() { return layer_.nodeRng(node_); }

void Context::bcast(Packet packet) {
  layer_.apiBcast(node_, std::move(packet));
}

bool Context::busy() const { return layer_.apiBusy(node_); }

void Context::deliver(MsgId msg) { layer_.apiDeliver(node_, msg); }

Time Context::now() const {
  layer_.requireEnhanced("Context::now");
  return layer_.now();
}

Time Context::fack() const {
  layer_.requireEnhanced("Context::fack");
  return layer_.params().fack;
}

Time Context::fprog() const {
  layer_.requireEnhanced("Context::fprog");
  return layer_.params().fprog;
}

TimerId Context::setTimerAt(Time at) { return layer_.apiSetTimer(node_, at); }

TimerId Context::setTimerAfter(Time delay) {
  AMMB_REQUIRE(delay >= 0, "timer delay must be non-negative");
  return layer_.apiSetTimer(node_, layer_.now() + delay);
}

bool Context::cancelTimer(TimerId id) { return layer_.apiCancelTimer(id); }

void Context::abortBcast() { layer_.apiAbort(node_); }

// ---------------------------------------------------------------------------
// MacEngine
// ---------------------------------------------------------------------------

MacEngine::MacEngine(const graph::TopologyView& view, MacParams params,
                     std::unique_ptr<Scheduler> scheduler,
                     ProcessFactory factory, std::uint64_t seed,
                     bool traceEnabled, sim::TraceMode traceMode)
    : MacLayer(traceEnabled, traceMode),
      view_(&view),
      csr_(&view_->csrAt(0)),
      params_(params),
      scheduler_(std::move(scheduler)),
      guard_(*this, view_->n()),
      schedulerRng_(SeedSequence(seed).childSeed(rngstream::kScheduler, 0)) {
  params_.validate();
  AMMB_REQUIRE(scheduler_ != nullptr, "a scheduler is required");
  AMMB_REQUIRE(factory != nullptr, "a process factory is required");

  const SeedSequence seeds(seed);
  nodes_.reserve(static_cast<std::size_t>(n()));
  for (NodeId v = 0; v < n(); ++v) {
    NodeState ns{factory(v),
                 seeds.childRng(rngstream::kNode,
                                static_cast<std::uint64_t>(v)),
                 kNoInstance,
                 {}};
    AMMB_REQUIRE(ns.process != nullptr, "process factory returned null");
    nodes_.push_back(std::move(ns));
  }
  scheduler_->attach(*this);

  // Epoch transitions are scheduled first, so at a boundary tick the
  // topology switches before any same-tick delivery/timer fires (those
  // were inserted later and the queue is FIFO within a tick).
  for (int e = 1; e < view_->epochCount(); ++e) {
    queue_.schedule(view_->epochStart(e), [this, e] { onEpochBoundary(e); });
  }

  // Wake every node at t = 0, in id order, before any environment event.
  for (NodeId v = 0; v < n(); ++v) {
    queue_.schedule(0, [this, v] {
      trace_.add({now(), sim::TraceKind::kWake, v, kNoInstance, kNoMsg});
      Context ctx(*this, v);
      state(v).process->onWake(ctx);
    });
  }
}


void MacEngine::injectArriveAt(NodeId node, MsgId msg, Time at) {
  checkNode(node);
  AMMB_REQUIRE(msg >= 0, "message ids must be non-negative");
  AMMB_REQUIRE(at >= now(), "cannot inject an arrival in the past");
  queue_.schedule(at, [this, node, msg] { fireArrive(node, msg); });
}

void MacEngine::fireArrive(NodeId node, MsgId msg) {
  trace_.add({now(), sim::TraceKind::kArrive, node, kNoInstance, msg});
  ++stats_.arrives;
  // The hook observes the arrival before the process reacts, so solve
  // trackers register the delivery requirements ahead of the immediate
  // deliver(m) most protocols emit at the origin.
  if (arriveHook_) arriveHook_(node, msg, now());
  Context ctx(*this, node);
  state(node).process->onArrive(ctx, msg);
}

void MacEngine::setArrivalSource(ArrivalSource source) {
  AMMB_REQUIRE(source != nullptr, "arrival source must be callable");
  AMMB_REQUIRE(arrivalSource_ == nullptr,
               "an arrival source is already registered");
  arrivalSource_ = std::move(source);
  scheduleNextArrival();
}

void MacEngine::scheduleNextArrival() {
  std::optional<ArrivalEvent> next = arrivalSource_();
  if (!next.has_value()) return;
  checkNode(next->node);
  AMMB_REQUIRE(next->msg >= 0, "message ids must be non-negative");
  AMMB_REQUIRE(next->at >= now(),
               "arrival sources must yield nondecreasing times");
  queue_.schedule(next->at, [this, node = next->node, msg = next->msg] {
    fireArrive(node, msg);
    scheduleNextArrival();
  });
}

sim::RunStatus MacEngine::runUntil(Time timeLimit, std::uint64_t maxEvents) {
  return queue_.run(timeLimit, maxEvents);
}

const Instance& MacEngine::instance(InstanceId id) const {
  AMMB_REQUIRE(id >= 0 && id < static_cast<InstanceId>(instances_.size()),
               "unknown instance id");
  return instances_[static_cast<std::size_t>(id)];
}

const std::vector<InstanceId>& MacEngine::liveInstancesNear(
    NodeId node) const {
  return state(node).liveNear;
}

// --- Context services -------------------------------------------------------

void MacEngine::apiBcast(NodeId node, Packet packet) {
  checkNode(node);
  NodeState& ns = state(node);
  AMMB_REQUIRE(ns.current == kNoInstance,
               "user well-formedness: bcast while a previous broadcast is "
               "still unterminated");
  AMMB_REQUIRE(static_cast<int>(packet.msgs.size()) <= params_.msgCapacity,
               "packet exceeds the per-broadcast message capacity");
  packet.sender = node;

  const InstanceId id = static_cast<InstanceId>(instances_.size());
  instances_.push_back(Instance{});
  Instance& inst = instances_.back();
  inst.id = id;
  inst.sender = node;
  inst.packet = std::move(packet);
  inst.bcastAt = now();

  trace_.add({now(), sim::TraceKind::kBcast, node, id, kNoMsg});
  ++stats_.bcasts;

  const DeliveryPlan plan = scheduler_->planBcast(inst);
  if (validatePlans_) validatePlan(inst, plan);
  inst.plannedAck = plan.ackAt;
  const graph::CsrSnapshot::Span gNbrs = csr_->gNeighbors(node);
  inst.pendingGDeliveries = static_cast<int>(gNbrs.size());
  // Static views skip the per-instance set: the countdown plus a
  // CSR membership probe is equivalent when edges never change.
  if (view_->dynamic()) inst.requiredG.assign(gNbrs.begin(), gNbrs.end());

  inst.reserveFanout(plan.deliveries.size());
  for (const PlannedDelivery& d : plan.deliveries) {
    const sim::EventHandle h = queue_.schedule(
        d.at, [this, id, target = d.target] { onDeliveryEvent(id, target); });
    inst.addPending(d.target, d.at, h);
  }
  inst.ackEvent =
      queue_.schedule(plan.ackAt, [this, id] { onAckEvent(id); });

  ns.current = id;
  for (NodeId j : csr_->pNeighbors(node)) {
    state(j).addLive(id);
  }
  // The new instance changes the need set of the sender's G-neighbors.
  for (NodeId j : gNbrs) guard_.recompute(j);
}

bool MacEngine::apiBusy(NodeId node) const {
  return state(node).current != kNoInstance;
}

void MacEngine::apiDeliver(NodeId node, MsgId msg) {
  checkNode(node);
  trace_.add({now(), sim::TraceKind::kDeliver, node, kNoInstance, msg});
  ++stats_.delivers;
  if (deliverHook_) deliverHook_(node, msg, now());
}

TimerId MacEngine::apiSetTimer(NodeId node, Time at) {
  requireEnhanced("Context::setTimer");
  checkNode(node);
  AMMB_REQUIRE(at >= now(), "timers cannot fire in the past");
  const TimerId id = nextTimer_++;
  const sim::EventHandle h = queue_.schedule(at, [this, node, id] {
    timers_.erase(id);
    Context ctx(*this, node);
    state(node).process->onTimer(ctx, id);
  });
  timers_.emplace(id, h);
  return id;
}

bool MacEngine::apiCancelTimer(TimerId id) {
  requireEnhanced("Context::cancelTimer");
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  queue_.cancel(it->second);
  timers_.erase(it);
  return true;
}

void MacEngine::apiAbort(NodeId node) {
  requireEnhanced("Context::abortBcast");
  NodeState& ns = state(node);
  AMMB_REQUIRE(ns.current != kNoInstance,
               "abort requires a broadcast in progress");
  Instance& inst = instances_[static_cast<std::size_t>(ns.current)];

  inst.terminated = true;
  inst.aborted = true;
  inst.termAt = now();
  trace_.add({now(), sim::TraceKind::kAbort, node, inst.id, kNoMsg});
  ++stats_.aborts;

  queue_.cancel(inst.ackEvent);
  // Pending receives may still fire within epsAbort of the abort.
  const Time cutoff = now() + params_.epsAbort;
  for (const Instance::PendingDelivery& pd : inst.pending) {
    if (pd.at > cutoff) queue_.cancel(pd.handle);
  }
  finishInstance(inst);
}

void MacEngine::requireEnhanced(const char* api) const {
  AMMB_REQUIRE(params_.variant == ModelVariant::kEnhanced,
               std::string(api) +
                   " is only available in the enhanced abstract MAC layer "
                   "model");
}

Rng& MacEngine::nodeRng(NodeId node) { return state(node).rng; }

// --- internal machinery -----------------------------------------------------

void MacEngine::validatePlan(const Instance& instance,
                             const DeliveryPlan& plan) const {
  // Rejections carry the instance id, the offending node and the
  // violated constraint's actual values: plan bring-up for hand-built
  // or physically-derived schedulers is debugged from these messages.
  const Time t0 = instance.bcastAt;
  const auto who = [&instance, t0] {
    return "instance " + std::to_string(instance.id) + " (sender " +
           std::to_string(instance.sender) + ", bcast at " +
           std::to_string(t0) + ")";
  };
  AMMB_REQUIRE(plan.ackAt >= t0 && plan.ackAt <= t0 + params_.fack,
               "scheduler plan for " + who() +
                   " violates the acknowledgment bound: ackAt " +
                   std::to_string(plan.ackAt) + " outside [" +
                   std::to_string(t0) + ", " +
                   std::to_string(t0 + params_.fack) + "] (Fack " +
                   std::to_string(params_.fack) + ")");
  planScratch_.clear();
  planScratch_.reserve(plan.deliveries.size());
  for (const PlannedDelivery& d : plan.deliveries) {
    AMMB_REQUIRE(d.target != instance.sender,
                 "scheduler plan for " + who() +
                     " delivers to the sender itself (node " +
                     std::to_string(d.target) + ")");
    AMMB_REQUIRE(csr_->hasPrimeEdge(instance.sender, d.target),
                 "scheduler plan for " + who() + " delivers to node " +
                     std::to_string(d.target) +
                     ", which is not a G'-neighbor of the sender in epoch " +
                     std::to_string(epoch_));
    AMMB_REQUIRE(d.at >= t0 && d.at <= plan.ackAt,
                 "scheduler plan for " + who() + " delivers to node " +
                     std::to_string(d.target) + " at " + std::to_string(d.at) +
                     ", outside [bcast, ack] = [" + std::to_string(t0) + ", " +
                     std::to_string(plan.ackAt) + "]");
    planScratch_.push_back(d.target);
  }
  std::sort(planScratch_.begin(), planScratch_.end());
  const auto dup =
      std::adjacent_find(planScratch_.begin(), planScratch_.end());
  AMMB_REQUIRE(dup == planScratch_.end(),
               "scheduler plan for " + who() +
                   " delivers twice to one receiver (node " +
                   (dup == planScratch_.end() ? std::string("?")
                                              : std::to_string(*dup)) +
                   ")");
  for (NodeId j : csr_->gNeighbors(instance.sender)) {
    AMMB_REQUIRE(
        std::binary_search(planScratch_.begin(), planScratch_.end(), j),
        "scheduler plan for " + who() +
            " misses reliable (G) neighbor node " + std::to_string(j));
  }
}

void MacEngine::performDelivery(InstanceId id, NodeId receiver, bool forced) {
  Instance& inst = instances_[static_cast<std::size_t>(id)];
  AMMB_ASSERT(!inst.hasDeliveredTo(receiver));

  // Drop the planned event if the guard preempted it.
  if (const Instance::PendingDelivery* pd = inst.findPending(receiver)) {
    queue_.cancel(pd->handle);
    inst.removePending(receiver);
  }

  inst.markDelivered(receiver);
  if (view_->dynamic()) {
    if (inst.removeRequiredG(receiver)) --inst.pendingGDeliveries;
  } else if (csr_->hasGEdge(inst.sender, receiver)) {
    --inst.pendingGDeliveries;
    AMMB_ASSERT(inst.pendingGDeliveries >= 0);
  }

  trace_.add({now(), sim::TraceKind::kRcv, receiver, id, kNoMsg});
  ++stats_.rcvs;
  if (forced) ++stats_.forcedRcvs;

  guard_.onReceive(receiver, id);

  Context ctx(*this, receiver);
  state(receiver).process->onReceive(ctx, inst.packet);
}

void MacEngine::onDeliveryEvent(InstanceId id, NodeId receiver) {
  Instance& inst = instances_[static_cast<std::size_t>(id)];
  inst.removePending(receiver);
  if (inst.hasDeliveredTo(receiver)) return;  // guard got there first
  if (inst.terminated && now() > inst.termAt + params_.epsAbort) return;
  performDelivery(id, receiver, /*forced=*/false);
}

void MacEngine::onAckEvent(InstanceId id) {
  Instance& inst = instances_[static_cast<std::size_t>(id)];
  if (inst.terminated) return;  // aborted; event race
  // With validation off an (intentionally broken) plan may ack while
  // G-deliveries are still missing; the offline checker flags it.
  AMMB_ASSERT(inst.pendingGDeliveries == 0 || !validatePlans_);
  inst.terminated = true;
  inst.termAt = now();
  trace_.add({now(), sim::TraceKind::kAck, inst.sender, id, kNoMsg});
  ++stats_.acks;
  finishInstance(inst);

  Context ctx(*this, inst.sender);
  state(inst.sender).process->onAck(ctx, inst.packet);
}

void MacEngine::finishInstance(Instance& inst) {
  NodeState& sender = state(inst.sender);
  if (sender.current == inst.id) sender.current = kNoInstance;

  // The instance no longer contends anywhere, and the covers it gave
  // its receivers are now capped at termAt - 1: record the cap, then
  // re-evaluate the neighborhood.  Live-list membership always tracks
  // the *current* epoch's E' neighborhood (epoch boundaries rebuild
  // it), so the current CSR span covers exactly the nodes holding this
  // instance.
  const graph::CsrSnapshot::Span pNbrs = csr_->pNeighbors(inst.sender);
  for (NodeId j : pNbrs) {
    state(j).removeLive(inst.id);
  }
  guard_.onTerminate(inst);
  // The cap also reaches receivers the sender can no longer reach
  // (their link dropped, or the sender crashed, since the delivery).
  // Static topologies never add such extras: deliveredTo is always a
  // subset of the sender's E' neighborhood there.  The extras are
  // disjoint from pNbrs, so each receiver is recomputed once.
  for (NodeId j : pNbrs) guard_.recompute(j);
  for (NodeId j : inst.deliveredTo) {
    if (!csr_->hasPrimeEdge(inst.sender, j)) guard_.recompute(j);
  }
}

void MacEngine::onEpochBoundary(int e) {
  AMMB_ASSERT(e == epoch_ + 1);
  epoch_ = e;
  csr_ = &view_->csrAt(e);
  trace_.add({now(), sim::TraceKind::kEpoch, kNoNode, kNoInstance,
              static_cast<MsgId>(e)});

  // Reconcile every in-flight instance with the new topology.  A
  // vanished E'-link voids its scheduled delivery; a vanished E-link
  // (or a crashed endpoint — crashed nodes have empty adjacency) also
  // voids the acknowledgment guarantee for that receiver.  The ack
  // itself always fires as planned: a crashed sender simply stops
  // delivering (its radio is down), it does not lose its automaton.
  for (Instance& inst : instances_) {
    const NodeId s = inst.sender;
    // Scrub vanished-link deliveries even for aborted instances: their
    // epsAbort grace window may still hold scheduled events.  The scan
    // runs in reverse so a swap-remove only ever moves an
    // already-visited entry.
    for (std::size_t i = inst.pending.size(); i-- > 0;) {
      const Instance::PendingDelivery pd = inst.pending[i];
      if (csr_->hasPrimeEdge(s, pd.target)) continue;
      queue_.cancel(pd.handle);
      inst.removePending(pd.target);
    }
    if (inst.terminated) continue;
    std::vector<NodeId>& req = inst.requiredG;
    req.erase(std::remove_if(
                  req.begin(), req.end(),
                  [this, s](NodeId j) { return !csr_->hasGEdge(s, j); }),
              req.end());
    inst.pendingGDeliveries = static_cast<int>(req.size());
  }

  // Rebuild the live-instance lists from the new E' neighborhoods: a
  // live instance contends exactly at its sender's current neighbors.
  for (NodeState& ns : nodes_) {
    ns.liveNear.clear();
  }
  for (const Instance& inst : instances_) {
    if (inst.terminated) continue;
    for (NodeId j : csr_->pNeighbors(inst.sender)) {
      state(j).addLive(inst.id);
    }
  }

  // Need sets may have shrunk (links gone) or gained a later live-since
  // clip (links appeared); re-arm the affected receivers' deadlines.
  // Nodes outside touchedAt(e) keep identical neighborhoods, liveness
  // and live-since instants across the boundary, so their recompute
  // would re-derive the deadline they already hold — a no-op consuming
  // no event sequence numbers.  Skipping them is therefore
  // trace-identical to the full-n pass (the committed golden traces
  // and the churn_grid sweep baseline pin this down).
  for (NodeId j : view_->touchedAt(e)) guard_.recompute(j);

  // Finally, tell the automatons, in ascending node order at the very
  // end of the boundary, so a reaction that broadcasts re-arms through
  // the ordinary apiBcast path after every reconciliation above.
  // Per-node G gain/loss flags come from merging the two epochs'
  // sorted adjacency over the touched superset; untouched nodes have
  // identical neighborhoods by construction.
  if (!epochNotifications_) return;
  const graph::CsrSnapshot& prev = view_->csrAt(e - 1);
  const std::vector<NodeId>& touched = view_->touchedAt(e);
  std::size_t t = 0;  // touched is sorted and duplicate-free
  for (NodeId v = 0; v < n(); ++v) {
    EpochChange change;
    change.epoch = e;
    if (t < touched.size() && touched[t] == v) {
      ++t;
      change.touched = true;
      const graph::CsrSnapshot::Span before = prev.gNeighbors(v);
      const graph::CsrSnapshot::Span after = csr_->gNeighbors(v);
      const NodeId* b = before.begin();
      const NodeId* a = after.begin();
      while (b != before.end() && a != after.end()) {
        if (*b == *a) {
          ++b;
          ++a;
        } else if (*b < *a) {
          change.lostG = true;
          ++b;
        } else {
          change.gainedG = true;
          ++a;
        }
      }
      if (b != before.end()) change.lostG = true;
      if (a != after.end()) change.gainedG = true;
    }
    Context ctx(*this, v);
    state(v).process->onEpochChange(ctx, change);
  }
}

void MacEngine::forceProgressDelivery(NodeId receiver) {
  std::vector<InstanceId> candidates;
  for (InstanceId id : state(receiver).liveNear) {
    const Instance& inst = instances_[static_cast<std::size_t>(id)];
    if (!inst.terminated && !inst.hasDeliveredTo(receiver)) {
      candidates.push_back(id);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  AMMB_ASSERT(!candidates.empty());
  const InstanceId chosen =
      scheduler_->pickProgressDelivery(receiver, candidates);
  AMMB_ASSERT(std::find(candidates.begin(), candidates.end(), chosen) !=
              candidates.end());
  performDelivery(chosen, receiver, /*forced=*/true);
}

MacEngine::NodeState& MacEngine::state(NodeId node) {
  checkNode(node);
  return nodes_[static_cast<std::size_t>(node)];
}

const MacEngine::NodeState& MacEngine::state(NodeId node) const {
  checkNode(node);
  return nodes_[static_cast<std::size_t>(node)];
}

void MacEngine::checkNode(NodeId node) const {
  AMMB_REQUIRE(node >= 0 && node < n(), "node id out of range");
}

}  // namespace ammb::mac
