// Whole-trace reference implementations of the oracles.
//
// These are the original offline checkers: they take the finished
// trace by random access (trace.records(), O(trace) memory, in-memory
// sink only) and re-derive every verdict from scratch.  The library
// ships only the streaming forms (mac::TraceChecker behind
// mac::checkTrace, check::ExecutionChecker behind check::checkExecution);
// these references live in the test tree so the parity tests can pin
// the streaming verdicts to them, violation for violation.
#pragma once

#include <string>
#include <vector>

#include "check/oracles.h"
#include "mac/trace_checker.h"

namespace ammb::mac {

/// The whole-trace MAC-axiom reference for mac::checkTrace.  `horizon`
/// defaults (kTimeNever) to the last record's timestamp.
CheckResult checkTraceOffline(const graph::TopologyView& view,
                              const MacParams& params,
                              const sim::Trace& trace,
                              Time horizon = kTimeNever);

/// Expects two violation lists to agree field for field: axiom,
/// instance, node, time and detail of every record, in order.
void expectSameViolations(const std::vector<Violation>& streaming,
                          const std::vector<Violation>& reference,
                          const std::string& what);

/// checkTrace, expecting on the way that the streaming verdict equals
/// checkTraceOffline's on the trace as given and on a spool copy.
CheckResult checkTraceWithParity(const graph::DualGraph& topology,
                                 const MacParams& params,
                                 const sim::Trace& trace,
                                 Time horizon = kTimeNever);

}  // namespace ammb::mac

namespace ammb::check {

/// The whole-trace composition reference for check::checkExecution
/// (checkTraceOffline plus random-access record scans).
OracleReport checkExecutionOffline(const graph::TopologyView& view,
                                   const core::ProtocolSpec& protocol,
                                   const mac::MacParams& mac,
                                   const core::MmbWorkload& workload,
                                   const sim::Trace& trace,
                                   const core::RunResult& result);

/// Expects two oracle reports to agree field for field, MAC records
/// included.
void expectSameReport(const OracleReport& streaming,
                      const OracleReport& reference, const std::string& what);

}  // namespace ammb::check
