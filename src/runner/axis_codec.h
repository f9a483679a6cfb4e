// The tagged-label axis table.
//
// Five execution axes share the same tagged-label shape — a value type
// with a canonical label()/fromLabel() round-trip, a default whose
// label is elided from canonical serializations, a spec-file key, and
// an `ammb_sweep run` override flag:
//
//   axis      spec key      CLI flag      default
//   kernel    "kernel"      --kernel      "serial"
//   mac       "mac"         --mac         "abstract"
//   reaction  "reactions"   --reaction    "none"
//   backend   "backend"     --backend     "sim"
//   trace     "trace_mode"  --trace-mode  "mem"
//
// The spec reader and writer, and the CLI's overrides, loop over this
// table.  The per-run provenance keys of the per-run axes
// ("mac_realization", "backend", "trace_mode", "kernel") are rows of
// the run-record table in emit.cpp; the reaction axis is recorded as
// the react_idx grid coordinate instead.
//
// resultBearing says whether the axis changes results.  Result-bearing
// overrides (mac, reaction, backend) are applied to the SpecDoc BEFORE
// the spec fingerprint is taken, so an overridden campaign can never
// merge/resume against the base spec's shards.  The trace mode is a
// pure storage knob and applies after; the kernel has the single value
// "serial", so its override either leaves the document unchanged or
// fails.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "runner/json.h"
#include "runner/spec_io.h"

namespace ammb::runner {

struct AxisCodec {
  const char* axis;          ///< short name ("kernel", "mac", ...)
  const char* specKey;       ///< spec-file JSON key
  const char* cliFlag;       ///< `ammb_sweep run` override flag
  const char* defaultLabel;  ///< canonical default; elided when equal
  bool resultBearing;        ///< override applies before fingerprinting
  bool multi;                ///< list axis (JSON array / comma CLI)

  /// Canonical labels of the axis in `doc` (exactly one for single
  /// axes, the axis points in order for multi).
  std::vector<std::string> (*get)(const SpecDoc& doc);
  /// Parses one label into `doc`; `first` resets a multi axis before
  /// its first point.  Throws ammb::Error on a malformed label —
  /// callers wrap with the spec/CLI context.
  void (*parseInto)(SpecDoc& doc, const std::string& label, bool first);
};

/// Table positions, for code that names one axis.
enum AxisIndex : std::size_t {
  kKernelAxis,
  kMacAxis,
  kReactionAxis,
  kBackendAxis,
  kTraceAxis,
};

/// The table, in AxisIndex order.
const std::array<AxisCodec, 5>& axisCodecs();

/// Lookup by axis name; throws on unknown names.
const AxisCodec& axisCodec(const std::string& axis);

/// Applies one CLI override value (comma-separated for multi axes).
/// Error messages name the flag.
void applyAxisOverride(SpecDoc& doc, const AxisCodec& codec,
                       const std::string& value);

/// The spec-file value of the axis: its label, or the array of its
/// labels for a multi axis.
json::Value axisToJson(const SpecDoc& doc, const AxisCodec& codec);

/// Whether the axis holds its default — the one elision rule every
/// axis shares, so a pre-axis spec's canonical bytes (and fingerprint)
/// never change.
bool axisAtDefault(const SpecDoc& doc, const AxisCodec& codec);

/// Parses the spec-file value `v` of the axis into `doc`; errors name
/// `path` (and the entry index of a multi axis).
void axisFromJson(SpecDoc& doc, const AxisCodec& codec, const json::Value& v,
                  const std::string& path);

}  // namespace ammb::runner
