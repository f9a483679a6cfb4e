#include "runner/spec_io.h"

#include <fstream>
#include <sstream>

#include "check/golden.h"
#include "runner/axis_codec.h"
#include "runner/field_table.h"

namespace ammb::runner {

// --- enum spellings ---------------------------------------------------------

template <>
const Spelling<core::ProtocolKind>& spelling<core::ProtocolKind>() {
  static const Spelling<core::ProtocolKind> s{
      "protocol",
      spelledBy({core::ProtocolKind::kBmmb, core::ProtocolKind::kFmmb},
                [](auto kind) { return core::toString(kind); })};
  return s;
}

template <>
const Spelling<core::SchedulerKind>& spelling<core::SchedulerKind>() {
  using core::SchedulerKind;
  static const Spelling<SchedulerKind> s{
      "scheduler",
      spelledBy({SchedulerKind::kFast, SchedulerKind::kRandom,
                 SchedulerKind::kSlowAck, SchedulerKind::kAdversarial,
                 SchedulerKind::kAdversarialStuffing,
                 SchedulerKind::kLowerBound},
                [](auto kind) { return core::toString(kind); })};
  return s;
}

template <>
const Spelling<CheckMode>& spelling<CheckMode>() {
  static const Spelling<CheckMode> s{"check mode",
                                     {{CheckMode::kOff, "off"},
                                      {CheckMode::kMac, "mac"},
                                      {CheckMode::kFull, "full"}}};
  return s;
}

template <>
const Spelling<core::QueueDiscipline>& spelling<core::QueueDiscipline>() {
  static const Spelling<core::QueueDiscipline> s{
      "queue discipline",
      {{core::QueueDiscipline::kFifo, "fifo"},
       {core::QueueDiscipline::kLifo, "lifo"},
       {core::QueueDiscipline::kRandom, "random"}}};
  return s;
}

template <>
const Spelling<mac::ModelVariant>& spelling<mac::ModelVariant>() {
  static const Spelling<mac::ModelVariant> s{
      "MAC variant",
      {{mac::ModelVariant::kStandard, "standard"},
       {mac::ModelVariant::kEnhanced, "enhanced"}}};
  return s;
}

template <>
const Spelling<core::FmmbParams::Mode>& spelling<core::FmmbParams::Mode>() {
  static const Spelling<core::FmmbParams::Mode> s{
      "fmmb mode",
      {{core::FmmbParams::Mode::kInterleaved, "interleaved"},
       {core::FmmbParams::Mode::kSequential, "sequential"}}};
  return s;
}

namespace {

// --- axis kinds -------------------------------------------------------------
// Each kind of a kinded axis point is declared once: its spelling, its
// parameters (required unless optional, range-checked eagerly so a
// typoed committed spec fails at `ammb_sweep print` time rather than
// mid-sweep) and the canonical builder it instantiates.  parseSpec,
// writeSpec and buildSweep all loop over these rows.

constexpr auto kNodes = field<&TopologyDoc::n>("n").in(Range::kPositive);

constexpr Kind<TopologyDoc, TopologySpec> kTopologyKinds[] = {
    {TopologyDoc::Kind::kLine, "line", {kNodes},
     [](const TopologyDoc& t) { return lineTopology(t.n); }},
    {TopologyDoc::Kind::kLineR, "line-r",
     {kNodes, field<&TopologyDoc::r>("r").in(Range::kPositive),
      field<&TopologyDoc::edgeProb>("edge_prob").in(Range::kProbability)},
     [](const TopologyDoc& t) {
       return rRestrictedLineTopology(t.n, t.r, t.edgeProb);
     }},
    {TopologyDoc::Kind::kLineArb, "line-arb",
     {kNodes,
      field<&TopologyDoc::extraEdges>("extra_edges").in(Range::kNonNegative)},
     [](const TopologyDoc& t) {
       return arbitraryNoiseLineTopology(
           t.n, static_cast<std::size_t>(t.extraEdges));
     }},
    {TopologyDoc::Kind::kGreyField, "grey-field",
     {kNodes,
      field<&TopologyDoc::avgDegree>("avg_degree").in(Range::kAboveZero),
      field<&TopologyDoc::c>("c").in(Range::kAtLeastOne),
      field<&TopologyDoc::pGrey>("p_grey").in(Range::kProbability)},
     [](const TopologyDoc& t) {
       return greyZoneFieldTopology(t.n, t.avgDegree, t.c, t.pGrey);
     }},
    {TopologyDoc::Kind::kNetworkC, "network-c",
     {field<&TopologyDoc::d>("d").in(Range::kPositive)},
     [](const TopologyDoc& t) { return lowerBoundNetworkCTopology(t.d); }},
};

constexpr auto kInterval =
    field<&WorkloadDoc::interval>("interval").in(Range::kNonNegative);

constexpr Kind<WorkloadDoc, WorkloadSpec> kWorkloadKinds[] = {
    {WorkloadDoc::Kind::kAllAtNode, "all-at-node",
     {field<&WorkloadDoc::node>("node").opt().in(Range::kNonNegative)},
     [](const WorkloadDoc& w) { return allAtNodeWorkload(w.node); }},
    {WorkloadDoc::Kind::kRoundRobin, "round-robin", {},
     [](const WorkloadDoc&) { return roundRobinWorkload(); }},
    {WorkloadDoc::Kind::kSpread, "spread", {},
     [](const WorkloadDoc&) { return spreadWorkload(); }},
    {WorkloadDoc::Kind::kRandom, "random", {},
     [](const WorkloadDoc&) { return randomWorkload(); }},
    {WorkloadDoc::Kind::kOnline, "online", {kInterval},
     [](const WorkloadDoc& w) { return onlineWorkload(w.interval); }},
    {WorkloadDoc::Kind::kPoisson, "poisson",
     {field<&WorkloadDoc::meanGap>("mean_gap").in(Range::kAboveZero)},
     [](const WorkloadDoc& w) { return poissonWorkload(w.meanGap); }},
    {WorkloadDoc::Kind::kBursty, "bursty",
     {field<&WorkloadDoc::batch>("batch").in(Range::kPositive),
      field<&WorkloadDoc::gap>("gap").in(Range::kNonNegative)},
     [](const WorkloadDoc& w) { return burstyWorkload(w.batch, w.gap); }},
    {WorkloadDoc::Kind::kStaggered, "staggered",
     {field<&WorkloadDoc::sources>("sources").in(Range::kPositive), kInterval},
     [](const WorkloadDoc& w) {
       return staggeredWorkload(w.sources, w.interval);
     }},
};

using core::DynamicsSpec;
constexpr auto kPeriod =
    field<&DynamicsSpec::period>("period").in(Range::kPositive);

/// Dynamics points build nothing of their own: DynamicsSpec is the
/// executable form.
constexpr Kind<DynamicsSpec, void> kDynamicsKinds[] = {
    {DynamicsSpec::Kind::kStatic, "static", {}, nullptr},
    {DynamicsSpec::Kind::kCrash, "crash",
     {field<&DynamicsSpec::crashes>("crashes").in(Range::kPositive), kPeriod,
      field<&DynamicsSpec::downFor>("down_for")},
     nullptr,
     [](const DynamicsSpec& d, const json::Reader& r) {
       AMMB_REQUIRE(d.downFor >= 1 && d.downFor < d.period,
                    r.path("down_for") +
                        " must satisfy 0 < down_for < period");
     }},
    {DynamicsSpec::Kind::kGreyDrift, "grey-drift",
     {field<&DynamicsSpec::epochs>("epochs").in(Range::kPositive), kPeriod,
      field<&DynamicsSpec::churn>("churn").in(Range::kProbability)},
     nullptr},
};

constexpr Field<MacDoc> kMacFields[] = {
    field<&MacDoc::name>("name").opt().in(Range::kNonEmpty),
    field<&MacDoc::params, &mac::MacParams::fack>("fack").opt(),
    field<&MacDoc::params, &mac::MacParams::fprog>("fprog").opt(),
    field<&MacDoc::params, &mac::MacParams::epsAbort>("eps_abort").opt(),
    field<&MacDoc::params, &mac::MacParams::msgCapacity>("msg_capacity").opt(),
    field<&MacDoc::params, &mac::MacParams::variant>("variant").opt(),
};

constexpr Field<FmmbDoc> kFmmbFields[] = {
    field<&FmmbDoc::c>("c").opt().in(Range::kAtLeastOne),
    field<&FmmbDoc::mode>("mode").opt(),
    field<&FmmbDoc::strictPaperPhases>("strict_paper_phases").opt(),
};

/// Reads a spec object: every row of `table`, then no other key.
template <class Table, class T>
void readStrict(const Table& table, T& obj, const json::Value& v,
                const std::string& path) {
  json::Reader r(v, path);
  readFields(table, obj, r);
  r.rejectUnknown();
}

}  // namespace

// The axis points' codecs, found by the vector codec of SpecDoc's rows.

json::Value encodeValue(const TopologyDoc& t) {
  return encodeKind(kTopologyKinds, t);
}

void decodeValue(TopologyDoc& t, const json::Value& v,
                 const std::string& path) {
  json::Reader r(v, path);
  decodeKind(kTopologyKinds, t, r, "topology kind");
  r.rejectUnknown();
}

json::Value encodeValue(const WorkloadDoc& w) {
  return encodeKind(kWorkloadKinds, w);
}

void decodeValue(WorkloadDoc& w, const json::Value& v,
                 const std::string& path) {
  json::Reader r(v, path);
  decodeKind(kWorkloadKinds, w, r, "workload kind");
  r.rejectUnknown();
}

json::Value encodeValue(const DynamicsDoc& d) {
  json::Object o = encodeKind(kDynamicsKinds, d.spec);
  o.emplace_back("name", d.name);
  return o;
}

void decodeValue(DynamicsDoc& d, const json::Value& v,
                 const std::string& path) {
  json::Reader r(v, path);
  decodeKind(kDynamicsKinds, d.spec, r, "dynamics kind");
  const json::Value* name = r.find("name");
  d.name = name != nullptr ? name->asString(r.path("name")) : d.spec.label();
  AMMB_REQUIRE(!d.name.empty(), path + ".name must be non-empty");
  r.rejectUnknown();
}

json::Value encodeValue(const MacDoc& m) {
  return encodeFields(kMacFields, m);
}

void decodeValue(MacDoc& m, const json::Value& v, const std::string& path) {
  readStrict(kMacFields, m, v, path);
  if (m.name.empty()) {
    m.name = "f" + std::to_string(m.params.fprog) + "a" +
             std::to_string(m.params.fack);
  }
  m.params.validate();
}

namespace {

/// A spec row for one execution axis of the AxisCodec table.
template <std::size_t Axis>
Field<SpecDoc> axisField() {
  Field<SpecDoc> f;
  f.key = axisCodecs()[Axis].specKey;
  f.get = [](const SpecDoc& doc) {
    return axisToJson(doc, axisCodecs()[Axis]);
  };
  f.set = [](SpecDoc& doc, const json::Value& v, const std::string& path) {
    axisFromJson(doc, axisCodecs()[Axis], v, path);
  };
  f.elide = [](const SpecDoc& doc) {
    return axisAtDefault(doc, axisCodecs()[Axis]);
  };
  f.optional = true;
  return f;
}

/// null stands for kTimeNever.
struct TimeOrNull {
  static json::Value encode(Time t) {
    return t == kTimeNever ? json::Value(nullptr) : json::Value(t);
  }
  static void decode(Time& out, const json::Value& v,
                     const std::string& path) {
    out = v.isNull() ? kTimeNever : v.asInt(path);
  }
};

/// The spec file's top-level keys, in canonical (writeSpec) order.
/// Optional keys keep SpecDoc's defaults when absent; the writer spells
/// every key out except the axes at their defaults and "fmmb" for BMMB.
const std::vector<Field<SpecDoc>>& specFields() {
  static const std::vector<Field<SpecDoc>> fields = {
      field<&SpecDoc::name>("name").in(Range::kNonEmpty),
      field<&SpecDoc::protocol>("protocol"),
      field<&SpecDoc::topologies>("topologies"),
      field<&SpecDoc::schedulers>("schedulers"),
      field<&SpecDoc::ks>("ks"),
      field<&SpecDoc::macs>("macs"),
      field<&SpecDoc::workloads>("workloads"),
      field<&SpecDoc::dynamics>("dynamics").opt().in(Range::kNonEmpty),
      axisField<kReactionAxis>(),
      field<&SpecDoc::seedBegin>("seed_begin"),
      field<&SpecDoc::seedEnd>("seed_end"),
      field<&SpecDoc::stopOnSolve>("stop_on_solve").opt(),
      field<&SpecDoc::recordTrace>("record_trace").opt(),
      field<&SpecDoc::check>("check").opt(),
      fieldAs<TimeOrNull, &SpecDoc::maxTime>("max_time").opt().in(
          Range::kNonNegative),
      field<&SpecDoc::maxEvents>("max_events").opt().in(Range::kPositive),
      field<&SpecDoc::discipline>("discipline").opt(),
      field<&SpecDoc::lowerBoundLineLength>("lower_bound_line_length").opt(),
      axisField<kMacAxis>(),
      axisField<kBackendAxis>(),
      axisField<kTraceAxis>(),
      axisField<kKernelAxis>(),
      {"fmmb",
       [](const SpecDoc& doc) -> json::Value {
         return encodeFields(kFmmbFields, doc.fmmb);
       },
       [](SpecDoc& doc, const json::Value& v, const std::string& path) {
         doc.hasFmmb = true;
         readStrict(kFmmbFields, doc.fmmb, v, path);
       },
       [](const SpecDoc& doc) { return !doc.hasFmmb; }, /*optional=*/true},
  };
  return fields;
}

}  // namespace

// --- parse ------------------------------------------------------------------

SpecDoc parseSpec(const std::string& jsonText) {
  SpecDoc doc;
  readStrict(specFields(), doc, json::parse(jsonText), "spec");
  if (doc.protocol == core::ProtocolKind::kFmmb) {
    AMMB_REQUIRE(doc.hasFmmb, "fmmb sweeps need a \"fmmb\" parameter object");
  } else {
    AMMB_REQUIRE(!doc.hasFmmb,
                 "\"fmmb\" is set but the sweep protocol is bmmb — the "
                 "parameters would be silently ignored");
  }
  return doc;
}

SpecDoc loadSpecFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AMMB_REQUIRE(in.good(), "cannot open spec file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parseSpec(buffer.str());
  } catch (const std::exception& e) {
    throw Error(path + ": " + e.what());
  }
}

// --- canonical writer -------------------------------------------------------

std::string writeSpec(const SpecDoc& doc) {
  return json::dump(encodeFields(specFields(), doc), 2);
}

// --- builder ----------------------------------------------------------------

SweepSpec buildSweep(const SpecDoc& doc) {
  SweepSpec spec;
  spec.name = doc.name;
  spec.protocol = doc.protocol;
  for (const TopologyDoc& t : doc.topologies) {
    spec.topologies.push_back(rowOf(kTopologyKinds, t.kind).build(t));
  }
  spec.schedulers = doc.schedulers;
  spec.ks = doc.ks;
  for (const MacDoc& m : doc.macs) {
    spec.macs.push_back({m.name, m.params});
  }
  for (const WorkloadDoc& w : doc.workloads) {
    spec.workloads.push_back(rowOf(kWorkloadKinds, w.kind).build(w));
  }
  spec.dynamics.clear();
  for (const DynamicsDoc& d : doc.dynamics) {
    spec.dynamics.push_back({d.name, d.spec});
  }
  spec.reactions = doc.reactions;
  spec.seedBegin = doc.seedBegin;
  spec.seedEnd = doc.seedEnd;
  spec.stopOnSolve = doc.stopOnSolve;
  spec.recordTrace = doc.recordTrace;
  spec.check = doc.check;
  spec.maxTime = doc.maxTime;
  spec.maxEvents = doc.maxEvents;
  spec.discipline = doc.discipline;
  spec.lowerBoundLineLength = doc.lowerBoundLineLength;
  spec.kernel = doc.kernel;
  spec.traceMode = doc.traceMode;
  spec.realization = doc.realization;
  spec.backend = doc.backend;
  if (doc.hasFmmb) {
    const FmmbDoc fmmb = doc.fmmb;
    spec.fmmbParams = [fmmb](NodeId n, int k) {
      core::FmmbParams params =
          fmmb.mode == core::FmmbParams::Mode::kSequential
              ? core::FmmbParams::makeSequential(n, k, fmmb.c)
              : core::FmmbParams::make(n, fmmb.c);
      if (fmmb.strictPaperPhases) params.strictPaperPhases();
      return params;
    };
  }
  spec.validate();
  return spec;
}

std::string specFingerprint(const SpecDoc& doc) {
  return json::hexU64(check::fnv1a(writeSpec(doc)));
}

}  // namespace ammb::runner
