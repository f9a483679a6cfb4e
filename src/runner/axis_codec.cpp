#include "runner/axis_codec.h"

namespace ammb::runner {

namespace {

std::vector<std::string> getKernel(const SpecDoc& doc) {
  return {doc.kernel.label()};
}
void setKernel(SpecDoc& doc, const std::string& label, bool) {
  doc.kernel = KernelTag::fromLabel(label);
}

std::vector<std::string> getRealization(const SpecDoc& doc) {
  return {doc.realization.label()};
}
void setRealization(SpecDoc& doc, const std::string& label, bool) {
  doc.realization = mac::MacRealization::fromLabel(label);
}

std::vector<std::string> getReactions(const SpecDoc& doc) {
  std::vector<std::string> labels;
  labels.reserve(doc.reactions.size());
  for (const core::ReactionSpec& r : doc.reactions) {
    labels.push_back(r.label());
  }
  return labels;
}
void setReaction(SpecDoc& doc, const std::string& label, bool first) {
  if (first) doc.reactions.clear();
  doc.reactions.push_back(core::ReactionSpec::fromLabel(label));
}

std::vector<std::string> getBackend(const SpecDoc& doc) {
  return {doc.backend.label()};
}
void setBackend(SpecDoc& doc, const std::string& label, bool) {
  doc.backend = core::ExecutionBackend::fromLabel(label);
}

std::vector<std::string> getTraceMode(const SpecDoc& doc) {
  return {doc.traceMode.label()};
}
void setTraceMode(SpecDoc& doc, const std::string& label, bool) {
  doc.traceMode = sim::TraceMode::fromLabel(label);
}

constexpr std::array<AxisCodec, 5> makeTable() {
  return {{
      // kernel: a one-value tag ("serial"); any other label is an
      // error.
      {"kernel", "kernel", "--kernel", "serial", /*resultBearing=*/false,
       /*multi=*/false, getKernel, setKernel},
      {"mac", "mac", "--mac", "abstract", /*resultBearing=*/true,
       /*multi=*/false, getRealization, setRealization},
      // reaction: a grid axis, not a scalar — list-valued in specs and
      // CLI, recorded per run as the react_idx coordinate rather than
      // a label.
      {"reaction", "reactions", "--reaction", "none", /*resultBearing=*/true,
       /*multi=*/true, getReactions, setReaction},
      {"backend", "backend", "--backend", "sim", /*resultBearing=*/true,
       /*multi=*/false, getBackend, setBackend},
      // trace: a pure storage knob — the committed record sequence
      // (and every hash/verdict derived from it) is identical across
      // backends, so the override applies after fingerprinting.
      {"trace", "trace_mode", "--trace-mode", "mem", /*resultBearing=*/false,
       /*multi=*/false, getTraceMode, setTraceMode},
  }};
}

}  // namespace

const std::array<AxisCodec, 5>& axisCodecs() {
  static const std::array<AxisCodec, 5> table = makeTable();
  return table;
}

const AxisCodec& axisCodec(const std::string& axis) {
  for (const AxisCodec& codec : axisCodecs()) {
    if (axis == codec.axis) return codec;
  }
  throw Error("unknown execution axis \"" + axis + "\"");
}

void applyAxisOverride(SpecDoc& doc, const AxisCodec& codec,
                       const std::string& value) {
  try {
    if (!codec.multi) {
      codec.parseInto(doc, value, true);
      return;
    }
    std::string remaining = value;
    bool first = true;
    while (true) {
      const std::size_t comma = remaining.find(',');
      codec.parseInto(doc, remaining.substr(0, comma), first);
      first = false;
      if (comma == std::string::npos) break;
      remaining = remaining.substr(comma + 1);
    }
  } catch (const std::exception& e) {
    throw Error(std::string(codec.cliFlag) + ": " + e.what());
  }
}

json::Value axisToJson(const SpecDoc& doc, const AxisCodec& codec) {
  const std::vector<std::string> labels = codec.get(doc);
  if (!codec.multi) return labels.front();
  return json::Array(labels.begin(), labels.end());
}

bool axisAtDefault(const SpecDoc& doc, const AxisCodec& codec) {
  const std::vector<std::string> labels = codec.get(doc);
  return labels.size() == 1 && labels.front() == codec.defaultLabel;
}

void axisFromJson(SpecDoc& doc, const AxisCodec& codec, const json::Value& v,
                  const std::string& path) {
  const auto parse = [&](const json::Value& entry, const std::string& at,
                         bool first) {
    const std::string& label = entry.asString(at);
    try {
      codec.parseInto(doc, label, first);
    } catch (const std::exception& e) {
      throw Error(at + ": " + e.what());
    }
  };
  if (!codec.multi) return parse(v, path, true);
  const json::Array& entries = v.asArray(path);
  AMMB_REQUIRE(!entries.empty(), path + " must not be an empty array");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    parse(entries[i], path + "[" + std::to_string(i) + "]", i == 0);
  }
}

}  // namespace ammb::runner
