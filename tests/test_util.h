// Shared helpers for the ammb test suite.
#pragma once

#include <algorithm>
#include <vector>

#include "mac/params.h"
#include "sim/trace.h"

namespace ammb::testutil {

/// Standard-model parameters with the given timing constants.
inline mac::MacParams stdParams(Time fprog = 4, Time fack = 32) {
  mac::MacParams p;
  p.fprog = fprog;
  p.fack = fack;
  p.variant = mac::ModelVariant::kStandard;
  return p;
}

/// Enhanced-model parameters with the given timing constants.
inline mac::MacParams enhParams(Time fprog = 4, Time fack = 32) {
  mac::MacParams p = stdParams(fprog, fack);
  p.variant = mac::ModelVariant::kEnhanced;
  return p;
}

/// Receivers of `instance` in delivery order, read from the trace's
/// kRcv records: the engine frees an instance's receiver list once the
/// instance is a tombstone.
inline std::vector<NodeId> rcvReceivers(const sim::Trace& trace,
                                        InstanceId instance) {
  std::vector<NodeId> out;
  for (const sim::TraceRecord& rec : trace.records()) {
    if (rec.kind == sim::TraceKind::kRcv && rec.instance == instance) {
      out.push_back(rec.node);
    }
  }
  return out;
}

/// True if the trace records a rcv of `instance` at `node`.
inline bool receivedBy(const sim::Trace& trace, InstanceId instance,
                       NodeId node) {
  const std::vector<NodeId> receivers = rcvReceivers(trace, instance);
  return std::find(receivers.begin(), receivers.end(), node) !=
         receivers.end();
}

}  // namespace ammb::testutil
