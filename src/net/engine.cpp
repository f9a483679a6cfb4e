#include "net/engine.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace ammb::net {

namespace {

/// Backoff ceiling: a lost link never waits longer than this between
/// attempts, so recovery latency stays bounded on lossy runs.
constexpr std::int64_t kMaxRtoUs = 500'000;

std::uint64_t linkKey(NodeId from, NodeId to) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32 |
         static_cast<std::uint32_t>(to);
}

}  // namespace

NetEngine::NetEngine(const graph::TopologyView& view, mac::MacParams params,
                     ProcessFactory factory, NetConfig config)
    : MacLayer(config.recordTrace, config.traceMode),
      view_(&view),
      params_(params),
      config_(config),
      faults_(config.seed, config.net.loss, config.net.jitterUs) {
  params_.validate();
  config_.net.validate();
  AMMB_REQUIRE(config_.rtoUs >= 1, "net rtoUs must be at least 1");
  AMMB_REQUIRE(!view.dynamic(),
               "the net backend requires a static (single-epoch) topology");
  AMMB_REQUIRE(factory != nullptr, "the net backend needs a process factory");
  const NodeId nn = view.n();
  AMMB_REQUIRE(nn >= 1, "the net backend needs at least one node");
  SeedSequence seeds(config_.seed);
  nodes_.resize(static_cast<std::size_t>(nn));
  for (NodeId v = 0; v < nn; ++v) {
    NodeState& ns = nodes_[static_cast<std::size_t>(v)];
    ns.process = factory(v);
    ns.rng = seeds.childRng(rngstream::kNode, static_cast<std::uint64_t>(v));
    ns.seenFrom.resize(static_cast<std::size_t>(nn));
  }
}

NetEngine::~NetEngine() {
  shutdown_.store(true);
  stopRequested_.store(true);
  cv_.notify_all();
  if (wakePipe_[1] >= 0) wakeLoop();
  if (loopThread_.joinable()) loopThread_.join();
  for (NodeState& ns : nodes_) {
    if (ns.receiver.joinable()) ns.receiver.join();
  }
  for (NodeState& ns : nodes_) {
    if (ns.fd >= 0) ::close(ns.fd);
  }
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
}

void NetEngine::setArrivalSource(ArrivalSource source) {
  AMMB_REQUIRE(!started_.load(),
               "arrival sources must be registered before run()");
  arrivalSource_ = std::move(source);
}

void NetEngine::requestStop() {
  stopRequested_.store(true);
  cv_.notify_all();
}

// --- clocks -----------------------------------------------------------------

std::int64_t NetEngine::elapsedUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

Time NetEngine::nowTicks() const {
  return elapsedUs() / config_.net.tickUs;
}

Time NetEngine::now() const {
  if (!started_.load()) return 0;
  const Time frozen = frozenEnd_.load();
  return frozen >= 0 ? frozen : nowTicks();
}

// --- run --------------------------------------------------------------------

sim::RunStatus NetEngine::runUntil(Time timeLimit, std::uint64_t maxEvents) {
  AMMB_REQUIRE(!started_.load(), "a NetEngine can only run once");
  maxEvents_ = maxEvents;

  const NodeId nn = n();
  for (NodeId v = 0; v < nn; ++v) {
    NodeState& ns = nodes_[static_cast<std::size_t>(v)];
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    AMMB_REQUIRE(fd >= 0, "net backend: socket() failed");
    ns.fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(
        config_.net.basePort == 0
            ? 0
            : static_cast<std::uint16_t>(config_.net.basePort + v));
    AMMB_REQUIRE(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "net backend: bind() failed (port in use?)");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    AMMB_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                               &len) == 0,
                 "net backend: getsockname() failed");
    ns.port = ntohs(bound.sin_port);
    // Short receive timeout: the receive threads poll shutdown_
    // between blocking recv calls, so teardown is prompt.
    timeval tv{};
    tv.tv_usec = 20'000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  AMMB_REQUIRE(::pipe(wakePipe_) == 0, "net backend: pipe() failed");
  ::fcntl(wakePipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wakePipe_[1], F_SETFL, O_NONBLOCK);

  start_ = std::chrono::steady_clock::now();
  started_.store(true);

  loopThread_ = std::thread([this] { loopMain(); });
  for (NodeId v = 0; v < nn; ++v) {
    nodes_[static_cast<std::size_t>(v)].receiver =
        std::thread([this, v] { receiverMain(v); });
  }

  sim::RunStatus status;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (NodeId v = 0; v < nn; ++v) {
      trace_.add({nowTicks(), sim::TraceKind::kWake, v, kNoInstance, kNoMsg});
      mac::Context ctx(*this, v);
      nodes_[static_cast<std::size_t>(v)].process->onWake(ctx);
      countEvent();
    }
    scheduleNextArrival();
    maybeDrain();

    const std::int64_t tickUs = config_.net.tickUs;
    const bool hasDeadline =
        timeLimit != kTimeNever &&
        timeLimit <= std::numeric_limits<std::int64_t>::max() / tickUs;
    const auto verdict = [this] {
      return stopRequested_.load() || drained_ || limitHit_;
    };
    if (hasDeadline) {
      cv_.wait_until(lock,
                     start_ + std::chrono::microseconds(timeLimit * tickUs),
                     verdict);
    } else {
      cv_.wait(lock, verdict);
    }

    // Freeze: no record may be appended past this point, and endTime
    // (frozenEnd_) is computed after the flag so it bounds the trace.
    stopping_ = true;
    frozenEnd_.store(nowTicks());
    status = stopRequested_.load() ? sim::RunStatus::kStopped
             : limitHit_           ? sim::RunStatus::kEventLimit
             : drained_            ? sim::RunStatus::kDrained
                                   : sim::RunStatus::kTimeLimit;
  }

  shutdown_.store(true);
  wakeLoop();
  loopThread_.join();
  for (NodeState& ns : nodes_) ns.receiver.join();
  for (NodeState& ns : nodes_) {
    ::close(ns.fd);
    ns.fd = -1;
  }
  ::close(wakePipe_[0]);
  ::close(wakePipe_[1]);
  wakePipe_[0] = wakePipe_[1] = -1;
  return status;
}

// --- timer loop -------------------------------------------------------------

void NetEngine::scheduleTask(std::int64_t dueUs, std::function<void()> task) {
  tasks_.emplace(dueUs, std::move(task));
  wakeLoop();
}

void NetEngine::wakeLoop() {
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(wakePipe_[1], &byte, 1);
}

void NetEngine::loopMain() {
  while (!shutdown_.load()) {
    int timeoutMs = 50;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!tasks_.empty() && !shutdown_.load() &&
             tasks_.begin()->first <= elapsedUs()) {
        auto due = tasks_.extract(tasks_.begin());
        due.mapped()();  // runs with the mutex held
      }
      maybeDrain();
      if (!tasks_.empty()) {
        const std::int64_t waitUs = tasks_.begin()->first - elapsedUs();
        timeoutMs = static_cast<int>(std::min<std::int64_t>(
            50, std::max<std::int64_t>(0, (waitUs + 999) / 1000)));
      }
    }
    pollfd pfd{wakePipe_[0], POLLIN, 0};
    ::poll(&pfd, 1, timeoutMs);
    if (pfd.revents & POLLIN) {
      char buf[256];
      while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
  }
}

// --- link machinery ---------------------------------------------------------

NetEngine::LinkState& NetEngine::link(NodeId from, NodeId to) {
  return links_[linkKey(from, to)];
}

void NetEngine::enqueueMessage(NodeId from, NodeId to, bool gLink,
                               InstanceId instance,
                               const mac::Packet& packet) {
  LinkState& l = link(from, to);
  Outstanding o;
  o.msg.seq = l.nextSeq++;
  o.msg.instance = instance;
  o.msg.packet = packet;
  o.gLink = gLink;
  o.rtoUs = config_.rtoUs;
  o.dueUs = elapsedUs();
  l.outstanding.emplace(o.msg.seq, std::move(o));
  ++totalOutstanding_;
  scheduleSweep(from, to);
}

void NetEngine::scheduleSweep(NodeId from, NodeId to) {
  LinkState& l = link(from, to);
  if (l.sweepScheduled || l.outstanding.empty()) return;
  std::int64_t due = std::numeric_limits<std::int64_t>::max();
  for (const auto& [seq, o] : l.outstanding) due = std::min(due, o.dueUs);
  l.sweepScheduled = true;
  scheduleTask(due, [this, from, to] { sweepLink(from, to); });
}

void NetEngine::sweepLink(NodeId from, NodeId to) {
  LinkState& l = link(from, to);
  l.sweepScheduled = false;
  if (stopping_) return;
  const std::int64_t nowUs = elapsedUs();
  std::vector<WireMessage> batch;
  std::uint64_t faultSeq = 0;
  std::uint32_t faultAttempt = 0;
  std::vector<std::uint64_t> exhausted;
  for (auto& [seq, o] : l.outstanding) {
    if (o.dueUs > nowUs) continue;
    if (batch.empty()) {
      faultSeq = seq;
      faultAttempt = o.attempt;
    }
    batch.push_back(o.msg);
    ++o.attempt;
    o.dueUs = nowUs + o.rtoUs;
    o.rtoUs = std::min<std::int64_t>(o.rtoUs * 2, kMaxRtoUs);
    if (!o.gLink &&
        o.attempt >=
            static_cast<std::uint32_t>(config_.net.gPrimeAttempts)) {
      // Final best-effort attempt on an unreliable-only link: it goes
      // out below, but nothing waits for its ack.
      exhausted.push_back(seq);
    }
    if (batch.size() == kBatchLimit) {
      transmit(from, to, std::move(batch), faultSeq, faultAttempt);
      batch.clear();
    }
  }
  if (!batch.empty()) {
    transmit(from, to, std::move(batch), faultSeq, faultAttempt);
  }
  for (std::uint64_t seq : exhausted) {
    l.outstanding.erase(seq);
    --totalOutstanding_;
  }
  scheduleSweep(from, to);
}

void NetEngine::transmit(NodeId from, NodeId to,
                         std::vector<WireMessage> batch,
                         std::uint64_t faultSeq, std::uint32_t faultAttempt) {
  if (faults_.drop(from, to, faultSeq, faultAttempt)) return;
  WireDatagram dg;
  dg.kind = WireKind::kData;
  dg.from = from;
  dg.messages = std::move(batch);
  std::vector<std::uint8_t> bytes = encodeDatagram(dg);
  const std::int64_t delay = faults_.delayUs(from, to, faultSeq, faultAttempt);
  if (delay <= 0) {
    sendDatagram(from, to, bytes);
  } else {
    scheduleTask(elapsedUs() + delay,
                 [this, from, to, bytes = std::move(bytes)] {
                   sendDatagram(from, to, bytes);
                 });
  }
}

void NetEngine::sendDatagram(NodeId from, NodeId to,
                             const std::vector<std::uint8_t>& bytes) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(nodes_[static_cast<std::size_t>(to)].port);
  // Loss (real or injected) is recovered by retransmission; a failed
  // sendto is just one more lost attempt.
  ::sendto(nodes_[static_cast<std::size_t>(from)].fd, bytes.data(),
           bytes.size(), 0, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
}

// --- receive path -----------------------------------------------------------

void NetEngine::receiverMain(NodeId node) {
  const int fd = nodes_[static_cast<std::size_t>(node)].fd;
  std::vector<std::uint8_t> buf(4096);
  while (!shutdown_.load()) {
    const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
    if (got <= 0) continue;  // timeout / EINTR
    WireDatagram dg;
    try {
      dg = decodeDatagram(buf.data(), static_cast<std::size_t>(got));
    } catch (const Error&) {
      continue;  // malformed datagram: drop it
    }
    if (dg.from < 0 || dg.from >= n() || dg.from == node) continue;
    if (dg.kind == WireKind::kData) {
      std::vector<std::uint64_t> acks;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        acks = handleData(node, dg);
        maybeDrain();
      }
      // Link-acks leave only after the kRcv records are in the trace,
      // so the sender's MAC-level ack always succeeds them in trace
      // order — the checker's ack-correctness axiom by construction.
      for (std::size_t i = 0; i < acks.size(); i += kBatchLimit) {
        WireDatagram ack;
        ack.kind = WireKind::kAck;
        ack.from = node;
        ack.acks.assign(acks.begin() + static_cast<std::ptrdiff_t>(i),
                        acks.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           i + kBatchLimit, acks.size())));
        sendDatagram(node, dg.from, encodeDatagram(ack));
      }
    } else {
      std::unique_lock<std::mutex> lock(mutex_);
      handleAcks(node, dg);
      maybeDrain();
    }
  }
}

std::vector<std::uint64_t> NetEngine::handleData(NodeId node,
                                                 const WireDatagram& dg) {
  std::vector<std::uint64_t> acks;
  if (stopping_) return acks;
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  auto& seen = ns.seenFrom[static_cast<std::size_t>(dg.from)];
  for (const WireMessage& m : dg.messages) {
    // Always ack a processed seq — also for duplicates and for
    // instances that terminated meanwhile — so the sender stops
    // retransmitting even when the delivery itself is suppressed.
    acks.push_back(m.seq);
    if (!seen.insert(m.seq).second) continue;  // retransmitted duplicate
    if (m.instance < 0 ||
        m.instance >= static_cast<InstanceId>(instances_.size())) {
      continue;
    }
    if (instances_[static_cast<std::size_t>(m.instance)].terminated) {
      // A late unreliable-link straggler: delivering now would place a
      // rcv after the instance's ack, which the model forbids.
      continue;
    }
    if (instances_[static_cast<std::size_t>(m.instance)]
            .rcvd[static_cast<std::size_t>(node)]) {
      continue;
    }
    instances_[static_cast<std::size_t>(m.instance)]
        .rcvd[static_cast<std::size_t>(node)] = 1;
    trace_.add({nowTicks(), sim::TraceKind::kRcv, node, m.instance, kNoMsg});
    ++stats_.rcvs;
    mac::Context ctx(*this, node);
    ns.process->onReceive(ctx, m.packet);
    countEvent();
    if (stopping_) break;
  }
  return acks;
}

void NetEngine::handleAcks(NodeId node, const WireDatagram& dg) {
  if (stopping_) return;
  LinkState& l = link(node, dg.from);
  for (std::uint64_t seq : dg.acks) {
    auto it = l.outstanding.find(seq);
    if (it == l.outstanding.end()) continue;  // duplicate / exhausted
    const bool gLink = it->second.gLink;
    const InstanceId id = it->second.msg.instance;
    l.outstanding.erase(it);
    --totalOutstanding_;
    if (!gLink) continue;
    NetInstance& inst = instances_[static_cast<std::size_t>(id)];
    if (--inst.pendingGAcks == 0 && !inst.terminated) scheduleMacAck(id);
  }
}

void NetEngine::scheduleMacAck(InstanceId id) {
  NetInstance& inst = instances_[static_cast<std::size_t>(id)];
  if (inst.ackScheduled) return;
  inst.ackScheduled = true;
  const std::int64_t delayUs = config_.net.ackDelayTicks * config_.net.tickUs;
  scheduleTask(
      elapsedUs() + delayUs, [this, id] {
        if (stopping_) return;
        NetInstance& inst = instances_[static_cast<std::size_t>(id)];
        if (inst.terminated) return;
        inst.terminated = true;
        const NodeId sender = inst.sender;
        const mac::Packet packet = inst.packet;
        trace_.add({nowTicks(), sim::TraceKind::kAck, sender, id, kNoMsg});
        ++stats_.acks;
        --openInstances_;
        NodeState& ns = nodes_[static_cast<std::size_t>(sender)];
        if (ns.current == id) ns.current = kNoInstance;
        mac::Context ctx(*this, sender);
        ns.process->onAck(ctx, packet);
        countEvent();
      });
}

// --- MacLayer services ------------------------------------------------------

void NetEngine::apiBcast(NodeId node, mac::Packet packet) {
  checkNode(node);
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  AMMB_REQUIRE(ns.current == kNoInstance,
               "user well-formedness: bcast while a previous broadcast is "
               "still unterminated");
  AMMB_REQUIRE(static_cast<int>(packet.msgs.size()) <= params_.msgCapacity,
               "packet exceeds the MAC layer's message capacity");
  packet.sender = node;
  const InstanceId id = static_cast<InstanceId>(instances_.size());
  NetInstance inst;
  inst.id = id;
  inst.sender = node;
  inst.packet = packet;
  inst.rcvd.assign(static_cast<std::size_t>(n()), 0);
  const graph::DualGraph& topo = topology();
  inst.pendingGAcks = static_cast<int>(topo.g().neighbors(node).size());
  instances_.push_back(std::move(inst));

  trace_.add({nowTicks(), sim::TraceKind::kBcast, node, id, kNoMsg});
  ++stats_.bcasts;
  ns.current = id;
  ++openInstances_;

  for (NodeId v : topo.g().neighbors(node)) {
    enqueueMessage(node, v, true, id, packet);
  }
  for (NodeId v : topo.gPrime().neighbors(node)) {
    if (!topo.g().hasEdge(node, v)) {
      enqueueMessage(node, v, false, id, packet);
    }
  }
  // An isolated sender has its guarantee vacuously met.
  if (instances_[static_cast<std::size_t>(id)].pendingGAcks == 0) {
    scheduleMacAck(id);
  }
}

bool NetEngine::apiBusy(NodeId node) const {
  checkNode(node);
  return nodes_[static_cast<std::size_t>(node)].current != kNoInstance;
}

void NetEngine::apiDeliver(NodeId node, MsgId msg) {
  checkNode(node);
  const Time t = nowTicks();
  trace_.add({t, sim::TraceKind::kDeliver, node, kNoInstance, msg});
  ++stats_.delivers;
  if (deliverHook_) deliverHook_(node, msg, t);
}

TimerId NetEngine::apiSetTimer(NodeId node, Time at) {
  requireEnhanced("Context::setTimer");
  checkNode(node);
  AMMB_REQUIRE(at >= nowTicks(), "timers cannot fire in the past");
  const TimerId id = nextTimer_++;
  activeTimers_.insert(id);
  scheduleTask(at * config_.net.tickUs, [this, node, id] {
    if (stopping_) return;
    if (activeTimers_.erase(id) == 0) return;  // cancelled meanwhile
    mac::Context ctx(*this, node);
    nodes_[static_cast<std::size_t>(node)].process->onTimer(ctx, id);
    countEvent();
  });
  return id;
}

bool NetEngine::apiCancelTimer(TimerId id) {
  requireEnhanced("Context::cancelTimer");
  return activeTimers_.erase(id) > 0;
}

void NetEngine::apiAbort(NodeId node) {
  requireEnhanced("Context::abortBcast");
  checkNode(node);
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  AMMB_REQUIRE(ns.current != kNoInstance,
               "abort requires a broadcast in progress");
  const InstanceId id = ns.current;
  NetInstance& inst = instances_[static_cast<std::size_t>(id)];
  inst.terminated = true;
  trace_.add({nowTicks(), sim::TraceKind::kAbort, node, id, kNoMsg});
  ++stats_.aborts;
  --openInstances_;
  ns.current = kNoInstance;
  // Stop retransmitting the aborted instance on every outgoing link.
  for (NodeId v : topology().gPrime().neighbors(node)) {
    LinkState& l = link(node, v);
    for (auto it = l.outstanding.begin(); it != l.outstanding.end();) {
      if (it->second.msg.instance == id) {
        it = l.outstanding.erase(it);
        --totalOutstanding_;
      } else {
        ++it;
      }
    }
  }
}

void NetEngine::requireEnhanced(const char* api) const {
  AMMB_REQUIRE(params_.variant == mac::ModelVariant::kEnhanced,
               std::string(api) +
                   " is only available in the enhanced abstract MAC layer "
                   "model");
}

Rng& NetEngine::nodeRng(NodeId node) {
  checkNode(node);
  return nodes_[static_cast<std::size_t>(node)].rng;
}

// --- run plumbing -----------------------------------------------------------

void NetEngine::fireArrive(NodeId node, MsgId msg) {
  checkNode(node);
  const Time t = nowTicks();
  trace_.add({t, sim::TraceKind::kArrive, node, kNoInstance, msg});
  ++stats_.arrives;
  if (arriveHook_) arriveHook_(node, msg, t);
  mac::Context ctx(*this, node);
  nodes_[static_cast<std::size_t>(node)].process->onArrive(ctx, msg);
  countEvent();
}

void NetEngine::scheduleNextArrival() {
  if (!arrivalSource_) {
    arrivalsExhausted_ = true;
    return;
  }
  std::optional<ArrivalEvent> next = arrivalSource_();
  if (!next.has_value()) {
    arrivalsExhausted_ = true;
    arrivalPending_ = false;
    return;
  }
  arrivalPending_ = true;
  const ArrivalEvent ev = *next;
  const std::int64_t atUs = ev.at * config_.net.tickUs;
  scheduleTask(std::max<std::int64_t>(atUs, elapsedUs()),
               [this, ev] {
                 if (stopping_) return;
                 arrivalPending_ = false;
                 fireArrive(ev.node, ev.msg);
                 scheduleNextArrival();
               });
}

void NetEngine::countEvent() {
  if (++events_ >= maxEvents_ && !limitHit_) {
    limitHit_ = true;
    cv_.notify_all();
  }
}

void NetEngine::maybeDrain() {
  if (drained_ || stopping_) return;
  if (arrivalsExhausted_ && !arrivalPending_ && openInstances_ == 0 &&
      totalOutstanding_ == 0 && activeTimers_.empty()) {
    drained_ = true;
    cv_.notify_all();
  }
}

void NetEngine::checkNode(NodeId node) const {
  AMMB_REQUIRE(node >= 0 && node < n(), "node id out of range");
}

}  // namespace ammb::net
