// The execution-backend axis: which machinery actually runs a
// configured experiment.
//
//   * kSim — the discrete-event simulator (mac::MacEngine).  The
//     default; deterministic, scheduler-driven, the correctness oracle
//     for everything else.
//   * kNet — the real message-passing backend (net::NetEngine): one
//     UDP socket + receive thread per node on loopback, perfect-link
//     ack/retransmit with exponential backoff and 8-messages-per-
//     datagram batching, seed-deterministic fault injection on the
//     unreliable G' fringe.  Real executions are recorded as
//     sim::Trace and re-checked under phys::measureRealized fitted
//     bounds by the same checkers the simulator uses.
//
// Value-semantic tagged label type in the mould of mac::MacRealization
// and sim::TraceMode: canonical label()/fromLabel() round-trip
// ("sim" | "net" | "net:<port>,<loss>,<tickUs>,<attempts>,<ackDelay>,
// <jitterUs>"), so sweep specs, CLI flags, and run records all speak
// one spelling.  core does not depend on src/net/ — only
// core/experiment.cpp includes the net engine, mirroring how the
// realization axis lives in mac/ while phys/ implements it.  The net
// knobs themselves (mac::NetBackendParams) sit in mac/realization.h.
#pragma once

#include <cstdint>
#include <string>

#include "mac/realization.h"

namespace ammb::core {

/// Which execution backend runs the experiment.
struct ExecutionBackend {
  enum class Kind : std::uint8_t {
    kSim,  ///< discrete-event simulator (default)
    kNet,  ///< real UDP sockets + threads on loopback
  };

  Kind kind = Kind::kSim;
  /// Meaningful only under kNet.
  mac::NetBackendParams net;

  bool sim() const { return kind == Kind::kSim; }

  /// Canonical spelling: "sim", "net", or "net:<basePort>,<loss>,
  /// <tickUs>,<gPrimeAttempts>,<ackDelayTicks>,<jitterUs>".
  std::string label() const;
  /// Inverse of label(); throws on unknown spellings.
  static ExecutionBackend fromLabel(const std::string& label);

  static ExecutionBackend simBackend() { return ExecutionBackend{}; }
  static ExecutionBackend netWith(const mac::NetBackendParams& params) {
    params.validate();
    ExecutionBackend backend;
    backend.kind = Kind::kNet;
    backend.net = params;
    return backend;
  }

  friend bool operator==(const ExecutionBackend& a,
                         const ExecutionBackend& b) {
    if (a.kind != b.kind) return false;
    return a.kind == Kind::kSim || a.net == b.net;
  }
  friend bool operator!=(const ExecutionBackend& a,
                         const ExecutionBackend& b) {
    return !(a == b);
  }
};

}  // namespace ammb::core
