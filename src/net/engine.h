// The real message-passing backend: the abstract MAC layer realized
// over UDP sockets and threads.
//
// NetEngine implements mac::MacLayer, so every protocol automaton in
// the repository (BMMB, FMMB, the reaction stacks) runs over it
// unmodified — the paper's thesis made executable: algorithms written
// against the Fprog/Fack abstraction port from the discrete-event
// simulator to a real network by swapping the layer underneath.
//
// Realization
//   * One UDP socket per node, bound to 127.0.0.1, plus one receive
//     thread per node (blocking recv with a short timeout so shutdown
//     is prompt).
//   * One shared timer loop thread — poll() on a self-pipe — drives
//     everything time-based: retransmissions, protocol timers, MAC
//     acknowledgments, arrivals, and fault-delayed sends.
//   * Perfect-link semantics per directed link: per-link sequence
//     numbers, receiver-side dedup, explicit acks, retransmission with
//     exponential backoff.  G links retransmit until acked (the
//     reliable E of the model); E' \ E links get a bounded number of
//     attempts — delivery over them is best-effort, exactly the
//     model's unreliable-edge story.
//   * Up to net::kBatchLimit messages ride one datagram: a
//     retransmission sweep coalesces every due message of a link.
//   * Seed-deterministic fault injection (net/fault.h) drops/delays
//     attempts at the sender, so loss is reproducible on loopback.
//
// One global mutex serializes every protocol callback and trace
// append, so the recorded sim::Trace is a totally ordered execution
// with monotone timestamps — checkable by mac::checkTrace and
// check::checkExecution under phys::measureRealized fitted bounds,
// just like a CSMA-realized simulation.  Time is real: a tick is
// NetBackendParams::tickUs microseconds of wall clock since run()
// started.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "graph/topology_view.h"
#include "mac/layer.h"
#include "mac/packet.h"
#include "mac/params.h"
#include "mac/process.h"
#include "mac/realization.h"
#include "net/fault.h"
#include "net/wire.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace ammb::net {

/// Knobs of the UDP backend plus run wiring.
struct NetConfig {
  /// Ports, loss, tick scale, G'-link attempts and the injected faults.
  mac::NetBackendParams net;
  /// Initial retransmission timeout (microseconds, doubles per retry).
  std::int64_t rtoUs = 2000;
  /// Master seed (node RNG streams + fault plan).
  std::uint64_t seed = 1;
  /// Whether to store the sim::Trace records (consumers are fed anyway).
  bool recordTrace = true;
  /// Trace storage (in-memory vector or disk spool).
  sim::TraceMode traceMode;
};

/// The UDP realization of the abstract MAC layer.
class NetEngine final : public mac::MacLayer {
 public:
  /// The view must be static (single-epoch) — real time has no
  /// scripted topology changes — and must outlive the engine.
  NetEngine(const graph::TopologyView& view, mac::MacParams params,
            ProcessFactory factory, NetConfig config);
  ~NetEngine() override;

  /// Registers the arrival stream (pulled once the run starts).
  void setArrivalSource(ArrivalSource source) override;

  /// Requests the current run to stop.  Safe to call from protocol
  /// callbacks (the solve tracker does) and from other threads.
  void requestStop() override;

  // --- introspection ----------------------------------------------------
  Time now() const override;
  const graph::DualGraph& topology() const override {
    return view_->dualAt(0);
  }
  const graph::TopologyView& view() const { return *view_; }
  const mac::MacParams& params() const override { return params_; }
  NodeId n() const override { return view_->n(); }

 private:
  /// One message outstanding on a directed link (awaiting its ack).
  struct Outstanding {
    WireMessage msg;
    bool gLink = false;      ///< reliable: retransmit until acked
    std::uint32_t attempt = 0;
    std::int64_t rtoUs = 0;
    std::int64_t dueUs = 0;  ///< next transmission (µs since start)
  };

  /// Sender-side state of one directed link.
  struct LinkState {
    std::uint64_t nextSeq = 1;
    std::map<std::uint64_t, Outstanding> outstanding;
    bool sweepScheduled = false;
  };

  /// One acknowledged-broadcast instance (sender-side bookkeeping plus
  /// the shared terminated registry receivers consult before tracing a
  /// rcv — a rcv after the instance's ack would violate the model).
  struct NetInstance {
    InstanceId id = kNoInstance;
    NodeId sender = kNoNode;
    mac::Packet packet;
    int pendingGAcks = 0;
    bool ackScheduled = false;
    bool terminated = false;
    std::vector<char> rcvd;  ///< per receiver: kRcv already traced
  };

  struct NodeState {
    std::unique_ptr<mac::Process> process;
    Rng rng{0};
    InstanceId current = kNoInstance;
    int fd = -1;
    std::uint16_t port = 0;
    std::thread receiver;
    /// Receiver-side dedup: seqs already processed, per sender.
    std::vector<std::unordered_set<std::uint64_t>> seenFrom;
  };

  // MacLayer services (invoked by Context, mutex held) -------------------
  void apiBcast(NodeId node, mac::Packet packet) override;
  bool apiBusy(NodeId node) const override;
  void apiDeliver(NodeId node, MsgId msg) override;
  TimerId apiSetTimer(NodeId node, Time at) override;
  bool apiCancelTimer(TimerId id) override;
  void apiAbort(NodeId node) override;
  void requireEnhanced(const char* api) const override;
  Rng& nodeRng(NodeId node) override;

  /// Binds sockets, starts the threads, wakes the nodes, and blocks
  /// until the system drains, a stop is requested, the event cap
  /// trips, or `timeLimit` ticks of wall clock elapse.  Trace
  /// consumers fire under the engine mutex, in commit order.
  sim::RunStatus runUntil(Time timeLimit, std::uint64_t maxEvents) override;

  // Clocks ---------------------------------------------------------------
  std::int64_t elapsedUs() const;       ///< µs since run() started
  Time nowTicks() const;                ///< elapsedUs / tickUs

  // Timer loop -----------------------------------------------------------
  /// Enqueues `task` to run (mutex held) at `dueUs` µs since start.
  void scheduleTask(std::int64_t dueUs, std::function<void()> task);
  void wakeLoop();
  void loopMain();

  // Link machinery (mutex held) ------------------------------------------
  LinkState& link(NodeId from, NodeId to);
  void enqueueMessage(NodeId from, NodeId to, bool gLink, InstanceId instance,
                      const mac::Packet& packet);
  void scheduleSweep(NodeId from, NodeId to);
  void sweepLink(NodeId from, NodeId to);
  void transmit(NodeId from, NodeId to, std::vector<WireMessage> batch,
                std::uint64_t faultSeq, std::uint32_t faultAttempt);
  void sendDatagram(NodeId from, NodeId to,
                    const std::vector<std::uint8_t>& bytes);

  // Receive path ---------------------------------------------------------
  void receiverMain(NodeId node);
  /// Returns the seqs to ack (always acked, even when delivery is
  /// deduplicated or suppressed for a terminated instance).
  std::vector<std::uint64_t> handleData(NodeId node, const WireDatagram& dg);
  void handleAcks(NodeId node, const WireDatagram& dg);
  void scheduleMacAck(InstanceId id);

  // Run plumbing (mutex held unless noted) -------------------------------
  void fireArrive(NodeId node, MsgId msg);
  void scheduleNextArrival();
  void countEvent();
  void maybeDrain();
  void checkNode(NodeId node) const;

  const graph::TopologyView* view_;
  mac::MacParams params_;
  NetConfig config_;
  FaultPlan faults_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;   ///< run() waits here for a verdict
  std::vector<NodeState> nodes_;
  std::vector<NetInstance> instances_;
  std::unordered_map<std::uint64_t, LinkState> links_;  ///< key from<<32|to
  std::unordered_set<TimerId> activeTimers_;
  TimerId nextTimer_ = 1;

  ArrivalSource arrivalSource_;
  bool arrivalsExhausted_ = false;
  bool arrivalPending_ = false;

  /// Time-ordered task queue of the loop thread (key: µs since start).
  std::multimap<std::int64_t, std::function<void()>> tasks_;
  std::thread loopThread_;
  int wakePipe_[2] = {-1, -1};

  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> started_{false};
  /// now() after the run ended (−1 while running): freezing the clock
  /// at the instant stopping_ was set keeps endTime >= every record.
  std::atomic<Time> frozenEnd_{-1};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> stopRequested_{false};
  bool stopping_ = false;   ///< set under mutex_; freezes the trace
  bool drained_ = false;
  bool limitHit_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t maxEvents_ = 0;
  std::int64_t openInstances_ = 0;
  std::int64_t totalOutstanding_ = 0;
};

}  // namespace ammb::net
