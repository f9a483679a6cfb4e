// The execution seam between protocol automata, the harness that drives
// a run, and whatever realizes the abstract MAC layer beneath them.
//
// Context routes every call a Process makes through this interface, so
// the same automaton code runs unchanged over the discrete-event
// simulator (mac::MacEngine) or the real UDP message-passing backend
// (net::NetEngine).  The split mirrors the paper's thesis: algorithms
// are written against the Fprog/Fack abstraction, not against any one
// realization of it.
//
// The harness drives either realization through the same interface:
// it installs the arrive/deliver hooks and the arrival stream, runs the
// layer, and reads back the trace and the counters.  core::Experiment
// holds one MacLayer and never branches on the backend.
//
// The api* services are deliberately private-with-friend: only Context
// may invoke them, exactly as with the pre-existing MacEngine friend
// arrangement, so protocol code cannot bypass the facade.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "mac/packet.h"
#include "mac/params.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace ammb::graph {
class DualGraph;
}

namespace ammb::mac {

class Context;
class Process;

/// Aggregate counters of a run.
struct EngineStats {
  std::uint64_t bcasts = 0;
  std::uint64_t rcvs = 0;
  std::uint64_t forcedRcvs = 0;  ///< deliveries forced by the guard
  std::uint64_t acks = 0;
  std::uint64_t aborts = 0;
  std::uint64_t delivers = 0;
  std::uint64_t arrives = 0;
};

/// Abstract MAC layer as seen from a Process through its Context, and
/// as driven by the harness.
class MacLayer {
 public:
  using ProcessFactory = std::function<std::unique_ptr<Process>(NodeId)>;
  /// Hook fired on every protocol deliver(m) output.
  using DeliverHook = std::function<void(NodeId, MsgId, Time)>;
  /// Hook fired on every environment arrive(m) input, before the
  /// process reacts to it (so solve trackers see the arrival first).
  using ArriveHook = std::function<void(NodeId, MsgId, Time)>;
  /// One environment arrival pulled from a lazy source.
  struct ArrivalEvent {
    NodeId node = kNoNode;
    MsgId msg = kNoMsg;
    Time at = 0;
  };
  /// Pull-based arrival stream: nullopt means exhausted.
  using ArrivalSource = std::function<std::optional<ArrivalEvent>()>;

  virtual ~MacLayer() = default;
  // Engines hand `this` to scheduled events, threads and hooks.
  MacLayer(const MacLayer&) = delete;
  MacLayer& operator=(const MacLayer&) = delete;

  /// Network size (node ids are 0..n-1).
  virtual NodeId n() const = 0;
  /// The topology in effect right now (epoch-aware on dynamic views).
  virtual const graph::DualGraph& topology() const = 0;
  /// Current time in ticks.
  virtual Time now() const = 0;
  /// The Fack/Fprog/variant parameters this layer executes under.
  virtual const MacParams& params() const = 0;

  // --- driver -----------------------------------------------------------
  /// Registers a pull-based arrival stream (before run()).  The layer
  /// keeps exactly one pending arrival: when it fires, the next one is
  /// pulled, so open-ended streams cost O(1) space.  The source must
  /// yield nondecreasing times >= now().
  virtual void setArrivalSource(ArrivalSource source) = 0;

  /// Runs until drained / stopped / past `timeLimit` / `maxEvents`.
  sim::RunStatus run(Time timeLimit = kTimeNever,
                     std::uint64_t maxEvents = 250'000'000) {
    return runUntil(timeLimit, maxEvents);
  }

  /// Requests the current run to stop after the ongoing event.  Safe to
  /// call from protocol callbacks and hooks.
  virtual void requestStop() = 0;

  /// Registers the deliver-output observer (e.g., solve detection).
  void setDeliverHook(DeliverHook hook) { deliverHook_ = std::move(hook); }
  /// Registers the arrive-input observer (e.g., latency tracking).
  void setArriveHook(ArriveHook hook) { arriveHook_ = std::move(hook); }

  const sim::Trace& trace() const { return trace_; }
  /// Mutable trace access — the attachment point for streaming
  /// consumers (sim::Trace::attachConsumer) before run().
  sim::Trace& mutableTrace() { return trace_; }
  const EngineStats& stats() const { return stats_; }

 protected:
  MacLayer(bool traceEnabled, sim::TraceMode traceMode)
      : trace_(traceEnabled, traceMode) {}

  virtual sim::RunStatus runUntil(Time timeLimit, std::uint64_t maxEvents) = 0;

  sim::Trace trace_;
  EngineStats stats_;
  DeliverHook deliverHook_;
  ArriveHook arriveHook_;

 private:
  friend class Context;

  virtual void apiBcast(NodeId node, Packet packet) = 0;
  virtual bool apiBusy(NodeId node) const = 0;
  virtual void apiDeliver(NodeId node, MsgId msg) = 0;
  virtual TimerId apiSetTimer(NodeId node, Time at) = 0;
  virtual bool apiCancelTimer(TimerId id) = 0;
  virtual void apiAbort(NodeId node) = 0;
  virtual void requireEnhanced(const char* api) const = 0;
  virtual Rng& nodeRng(NodeId node) = 0;
};

}  // namespace ammb::mac
