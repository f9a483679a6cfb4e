// Tests for the sweep-service file formats: the JSON reader/writer,
// the declarative spec schema (parse / validate / canonical round
// trip / fingerprint), the checked-in campaign definitions under
// sweeps/, and the tolerance-aware result comparison behind
// `ammb_sweep compare`.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "runner/axis_codec.h"
#include "runner/compare.h"
#include "runner/emit.h"
#include "runner/field_table.h"
#include "runner/spec_io.h"

namespace ammb {
namespace {

using runner::CompareOptions;
using runner::SpecDoc;
using runner::SweepSpec;
namespace json = runner::json;

// --- json -------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").isNull());
  EXPECT_EQ(json::parse("true").asBool(), true);
  EXPECT_EQ(json::parse("-42").asInt(), -42);
  EXPECT_TRUE(json::parse("42").isInt());
  EXPECT_TRUE(json::parse("42.0").isDouble());
  EXPECT_DOUBLE_EQ(json::parse("2.5e3").asDouble(), 2500.0);
  EXPECT_EQ(json::parse("\"a\\nb\\u0041\"").asString(), "a\nbA");
}

TEST(Json, Int64RoundTripsExactly) {
  // kTimeNever must survive a serialize/parse cycle bit-exactly; a
  // double-based reader would round it.
  const std::string text = json::dump(json::Value(kTimeNever));
  EXPECT_EQ(json::parse(text).asInt(), kTimeNever);
}

TEST(Json, DoublesUseShortestRoundTrip) {
  EXPECT_EQ(json::dump(json::Value(0.5)), "0.5");
  EXPECT_EQ(json::dump(json::Value(8.0)), "8.0");
  const double awkward = 0.1 + 0.2;
  EXPECT_EQ(json::parse(json::dump(json::Value(awkward))).asDouble(), awkward);
}

TEST(Json, ObjectsPreserveOrderAndRejectDuplicates) {
  const json::Value v = json::parse("{\"b\": 1, \"a\": 2}");
  const json::Object& members = v.asObject();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "b");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(v.find("a")->asInt(), 2);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), Error);
}

TEST(Json, ReportsErrorPosition) {
  try {
    json::parse("{\"a\": 1,\n  bad}");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, RejectsTrailingContentAndDeepNesting) {
  EXPECT_THROW(json::parse("1 2"), Error);
  EXPECT_THROW(json::parse(std::string(200, '[') + std::string(200, ']')),
               Error);
}

TEST(Json, RejectsSloppyNumberTokens) {
  // Tokens standard JSON consumers would choke on must not pass our
  // parser into committed spec files.
  for (const char* bad : {"+5", "5.", ".5", "-", "1e", "1e+", "2.e3", "012",
                          "-012"}) {
    EXPECT_THROW(json::parse(bad), Error) << bad;
  }
  EXPECT_EQ(json::parse("-0").asInt(), 0);
  EXPECT_DOUBLE_EQ(json::parse("1e+3").asDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("1.050").asDouble(), 1.05);
}

// --- spec parsing -----------------------------------------------------------

const char* kMinimalSpec = R"({
  "name": "mini",
  "protocol": "bmmb",
  "topologies": [{"kind": "line", "n": 8}],
  "schedulers": ["fast"],
  "ks": [2],
  "macs": [{"fack": 32, "fprog": 4}],
  "workloads": [{"kind": "round-robin"}],
  "seed_begin": 1,
  "seed_end": 3
})";

TEST(SpecIo, ParsesMinimalSpecWithDefaults) {
  const SpecDoc doc = runner::parseSpec(kMinimalSpec);
  EXPECT_EQ(doc.name, "mini");
  EXPECT_EQ(doc.protocol, core::ProtocolKind::kBmmb);
  ASSERT_EQ(doc.macs.size(), 1u);
  EXPECT_EQ(doc.macs[0].name, "f4a32");  // derived default
  EXPECT_TRUE(doc.stopOnSolve);
  EXPECT_EQ(doc.check, runner::CheckMode::kOff);
  EXPECT_EQ(doc.maxTime, kTimeNever);

  const SweepSpec spec = runner::buildSweep(doc);
  EXPECT_EQ(spec.runCount(), 2u);
  EXPECT_EQ(spec.topologies[0].name, "line8");
}

TEST(SpecIo, CanonicalWriteIsAFixpoint) {
  const std::string canonical = runner::writeSpec(runner::parseSpec(kMinimalSpec));
  EXPECT_EQ(runner::writeSpec(runner::parseSpec(canonical)), canonical);
}

TEST(SpecIo, FingerprintTracksContent) {
  const SpecDoc doc = runner::parseSpec(kMinimalSpec);
  SpecDoc changed = doc;
  changed.ks = {3};
  EXPECT_EQ(runner::specFingerprint(doc), runner::specFingerprint(doc));
  EXPECT_NE(runner::specFingerprint(doc), runner::specFingerprint(changed));
}

TEST(SpecIo, RejectsUnknownAndMalformedFields) {
  // A typoed axis must fail loudly, not silently shrink the campaign.
  EXPECT_THROW(runner::parseSpec(R"({
    "name": "x", "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 8, "typo": 1}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2})"),
               Error);
  EXPECT_THROW(runner::parseSpec(R"({
    "name": "x", "protocol": "bmmb", "unknown_top_level": true,
    "topologies": [{"kind": "line", "n": 8}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2})"),
               Error);
  EXPECT_THROW(runner::enumFromName<core::SchedulerKind>("bogus"), Error);
  EXPECT_THROW(runner::enumFromName<runner::CheckMode>("bogus"), Error);
  EXPECT_THROW(runner::enumFromName<core::QueueDiscipline>("bogus"), Error);
}

TEST(SpecIo, UnknownNamesListEveryExpectedSpelling) {
  // The "(expected ...)" lists come from the name tables: two names are
  // joined by " or ", more by ", ".
  using Members = std::vector<std::pair<std::string, std::string>>;
  const auto errorOf = [](const Members& overrides) {
    Members members = {{"name", R"("x")"},
                       {"protocol", R"("bmmb")"},
                       {"topologies", R"([{"kind": "line", "n": 8}])"},
                       {"schedulers", R"(["fast"])"},
                       {"ks", "[1]"},
                       {"macs", "[{}]"},
                       {"workloads", R"([{"kind": "round-robin"}])"},
                       {"seed_begin", "1"},
                       {"seed_end", "2"}};
    std::string text = "{";
    for (const auto& [key, value] : overrides) {
      const auto same = [&](const auto& m) { return m.first == key; };
      const auto it = std::find_if(members.begin(), members.end(), same);
      if (it != members.end()) it->second = value;
      else members.emplace_back(key, value);
    }
    for (const auto& [key, value] : members) {
      text += (text.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
    }
    try {
      runner::parseSpec(text + "}");
    } catch (const Error& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected a parse error for " << text;
    return std::string();
  };
  for (const auto& [overrides, message] :
       std::vector<std::pair<Members, std::string>>{
           {{{"protocol", R"("smtp")"}},
            "spec.protocol: unknown protocol \"smtp\" (expected bmmb or "
            "fmmb)"},
           {{{"topologies", R"([{"kind": "torus"}])"}},
            "unknown topology kind \"torus\" (expected line, line-r, "
            "line-arb, grey-field, network-c)"},
           {{{"workloads", R"([{"kind": "trickle"}])"}},
            "unknown workload kind \"trickle\" (expected all-at-node, "
            "round-robin, spread, random, online, poisson, bursty, "
            "staggered)"},
           {{{"dynamics", R"([{"kind": "melt"}])"}},
            "unknown dynamics kind \"melt\" (expected static, crash, "
            "grey-drift)"},
           {{{"macs", R"([{"variant": "quantum"}])"}},
            "unknown MAC variant \"quantum\" (expected standard or "
            "enhanced)"},
           {{{"check", R"("some")"}},
            "unknown check mode \"some\" (expected off, mac, full)"},
           {{{"discipline", R"("stack")"}},
            "unknown queue discipline \"stack\" (expected fifo, lifo, "
            "random)"},
           {{{"schedulers", R"(["bogus"])"}},
            "unknown scheduler \"bogus\" (expected fast, random, slow-ack, "
            "adversarial, adversarial+stuff, lower-bound)"},
           {{{"protocol", R"("fmmb")"},
             {"macs", R"([{"variant": "enhanced"}])"},
             {"fmmb", R"({"mode": "eager"})"}},
            "unknown fmmb mode \"eager\" (expected interleaved or "
            "sequential)"}}) {
    const std::string error = errorOf(overrides);
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
}

TEST(SpecIo, RejectsOutOfRangeAxisParametersEagerly) {
  // Range violations must fail at parse time (the sweep_spec_* CI
  // gate), not per-run in the middle of a sharded campaign.
  const auto specWith = [](const std::string& topology,
                           const std::string& workload) {
    return R"({"name": "x", "protocol": "bmmb",
               "topologies": [)" + topology + R"(],
               "schedulers": ["fast"], "ks": [1], "macs": [{}],
               "workloads": [)" + workload + R"(],
               "seed_begin": 1, "seed_end": 2})";
  };
  const std::string okTopo = R"({"kind": "line", "n": 8})";
  const std::string okWl = R"({"kind": "round-robin"})";
  EXPECT_NO_THROW(runner::parseSpec(specWith(okTopo, okWl)));
  for (const char* topo :
       {R"({"kind": "line", "n": -5})", R"({"kind": "line", "n": 0})",
        R"({"kind": "line-r", "n": 8, "r": 0, "edge_prob": 0.5})",
        R"({"kind": "line-r", "n": 8, "r": 2, "edge_prob": 1.5})",
        R"({"kind": "grey-field", "n": 8, "avg_degree": -1.0, "c": 1.5,
            "p_grey": 0.4})",
        R"({"kind": "network-c", "d": 0})"}) {
    EXPECT_THROW(runner::parseSpec(specWith(topo, okWl)), Error) << topo;
  }
  for (const char* wl :
       {R"({"kind": "poisson", "mean_gap": 0.0})",
        R"({"kind": "bursty", "batch": 0, "gap": 10})",
        R"({"kind": "staggered", "sources": 0, "interval": 5})",
        R"({"kind": "online", "interval": -1})"}) {
    EXPECT_THROW(runner::parseSpec(specWith(okTopo, wl)), Error) << wl;
  }
}

TEST(SpecIo, FmmbParametersAreRequiredExactlyForFmmb) {
  const std::string bmmbWithFmmb = R"({
    "name": "x", "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 8}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2,
    "fmmb": {"c": 1.5}})";
  EXPECT_THROW(runner::parseSpec(bmmbWithFmmb), Error);

  const std::string fmmbWithout = R"({
    "name": "x", "protocol": "fmmb",
    "topologies": [{"kind": "grey-field", "n": 16, "avg_degree": 6.0,
                    "c": 1.5, "p_grey": 0.4}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{"variant": "enhanced"}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2})";
  EXPECT_THROW(runner::parseSpec(fmmbWithout), Error);

  const std::string fmmbSpec = R"({
    "name": "x", "protocol": "fmmb",
    "topologies": [{"kind": "grey-field", "n": 16, "avg_degree": 6.0,
                    "c": 1.5, "p_grey": 0.4}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{"variant": "enhanced"}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2,
    "fmmb": {"c": 1.5, "mode": "sequential"}})";
  const SweepSpec spec = runner::buildSweep(runner::parseSpec(fmmbSpec));
  ASSERT_NE(spec.fmmbParams, nullptr);
  const core::FmmbParams params = spec.fmmbParams(16, 3);
  EXPECT_EQ(params.mode, core::FmmbParams::Mode::kSequential);
  EXPECT_EQ(params.knownK, 3);
}

TEST(SpecIo, EveryWorkloadAndTopologyKindRoundTrips) {
  const std::string text = R"({
    "name": "kinds", "protocol": "bmmb",
    "topologies": [
      {"kind": "line", "n": 8},
      {"kind": "line-r", "n": 8, "r": 2, "edge_prob": 0.5},
      {"kind": "line-arb", "n": 8, "extra_edges": 4},
      {"kind": "grey-field", "n": 16, "avg_degree": 6.0, "c": 1.5,
       "p_grey": 0.4},
      {"kind": "network-c", "d": 3}],
    "schedulers": ["fast", "random", "slow-ack", "adversarial",
                   "adversarial+stuff", "lower-bound"],
    "ks": [1],
    "macs": [{}],
    "workloads": [
      {"kind": "all-at-node", "node": 1},
      {"kind": "round-robin"},
      {"kind": "random"},
      {"kind": "online", "interval": 8},
      {"kind": "poisson", "mean_gap": 10.0},
      {"kind": "bursty", "batch": 4, "gap": 50},
      {"kind": "staggered", "sources": 3, "interval": 20}],
    "seed_begin": 1, "seed_end": 2,
    "lower_bound_line_length": 3})";
  const std::string canonical = runner::writeSpec(runner::parseSpec(text));
  EXPECT_EQ(runner::writeSpec(runner::parseSpec(canonical)), canonical);
  const SweepSpec spec = runner::buildSweep(runner::parseSpec(text));
  EXPECT_EQ(spec.cellCount(), 5u * 6u * 1u * 1u * 7u);
}

// --- key-path errors & the execution-axis codec -----------------------------

std::string parseErrorOf(const std::string& text) {
  try {
    runner::parseSpec(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parseSpec to throw for: " << text;
  return "";
}

std::string specWithExtra(const std::string& extra) {
  return R"({"name": "x", "protocol": "bmmb",
             "topologies": [{"kind": "line", "n": 8}],
             "schedulers": ["fast"], "ks": [1], "macs": [{}],
             "workloads": [{"kind": "round-robin"}],
             "seed_begin": 1, "seed_end": 2)" +
         extra + "}";
}

TEST(SpecIo, ErrorsNameTheFullKeyPath) {
  // A malformed entry deep in a list must be reported by its exact
  // position, not just by value — campaign files are long.
  EXPECT_NE(parseErrorOf(specWithExtra(
                R"(, "dynamics": [{"kind": "static"}, {"kind": "melt"}])"))
                .find("spec.dynamics[1].kind"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(specWithExtra(R"(, "reactions": ["none", "panic"])"))
                .find("spec.reactions[1]"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(specWithExtra(R"(, "kernel": "quantum")"))
                .find("spec.kernel"),
            std::string::npos);
  // The parallel kernel's spellings are rejected by name.
  const std::string parallelError =
      parseErrorOf(specWithExtra(R"(, "kernel": "parallel:4")"));
  EXPECT_NE(parallelError.find("spec.kernel"), std::string::npos)
      << parallelError;
  EXPECT_NE(parallelError.find("parallel kernel was removed"),
            std::string::npos)
      << parallelError;
  EXPECT_NE(parseErrorOf(specWithExtra(R"(, "mac": "tdma")"))
                .find("spec.mac"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(specWithExtra(R"(, "backend": "tcp")"))
                .find("spec.backend"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(R"({"name": "x", "protocol": "smtp",
      "topologies": [{"kind": "line", "n": 8}],
      "schedulers": ["fast"], "ks": [1], "macs": [{}],
      "workloads": [{"kind": "round-robin"}],
      "seed_begin": 1, "seed_end": 2})")
                .find("spec.protocol"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(R"({"name": "x", "protocol": "bmmb",
      "topologies": [{"kind": "torus", "n": 8}],
      "schedulers": ["fast"], "ks": [1], "macs": [{}],
      "workloads": [{"kind": "round-robin"}],
      "seed_begin": 1, "seed_end": 2})")
                .find("spec.topologies[0].kind"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(R"({"name": "x", "protocol": "bmmb",
      "topologies": [{"kind": "line", "n": 8}],
      "schedulers": ["fast"], "ks": [1], "macs": [{}],
      "workloads": [{"kind": "round-robin"}, {"kind": "trickle"}],
      "seed_begin": 1, "seed_end": 2})")
                .find("spec.workloads[1].kind"),
            std::string::npos);
}

TEST(SpecIo, SerialKernelKeyIsAcceptedButNeverWritten) {
  // "serial" is the key's only legal value and is never written, so
  // spelling it out changes neither the canonical text nor the
  // fingerprint.
  const SpecDoc spelled =
      runner::parseSpec(specWithExtra(R"(, "kernel": "serial")"));
  const SpecDoc omitted = runner::parseSpec(specWithExtra(""));
  EXPECT_EQ(spelled.kernel.label(), "serial");
  const std::string canonical = runner::writeSpec(spelled);
  EXPECT_EQ(canonical, runner::writeSpec(omitted));
  EXPECT_EQ(canonical.find("\"kernel\""), std::string::npos) << canonical;
  EXPECT_EQ(runner::specFingerprint(spelled),
            runner::specFingerprint(omitted));
}

TEST(SpecIo, BackendAxisRoundTripsAndFingerprints) {
  const SpecDoc simDoc = runner::parseSpec(kMinimalSpec);
  EXPECT_TRUE(simDoc.backend.sim());
  // Omitted key -> sim -> not serialized: the canonical form (and hence
  // every pre-existing spec fingerprint) is unchanged.
  EXPECT_EQ(runner::writeSpec(simDoc).find("\"backend\":"),
            std::string::npos);

  const std::string netText = specWithExtra(
      R"(, "backend": "net:19000,0.1,200,3,0,0")");
  const SpecDoc netDoc = runner::parseSpec(netText);
  EXPECT_EQ(netDoc.backend.label(), "net:19000,0.1,200,3,0,0");
  const std::string written = runner::writeSpec(netDoc);
  EXPECT_NE(written.find("\"backend\": \"net:19000,0.1,200,3,0,0\""),
            std::string::npos);
  EXPECT_EQ(runner::parseSpec(written).backend, netDoc.backend);
  // The backend changes results, so it must change the fingerprint.
  EXPECT_NE(runner::specFingerprint(runner::parseSpec(specWithExtra(""))),
            runner::specFingerprint(netDoc));
  EXPECT_EQ(runner::buildSweep(netDoc).backend, netDoc.backend);
}

TEST(SpecIo, NetBackendRequiresStaticAbstractSweep) {
  EXPECT_NO_THROW(runner::buildSweep(
      runner::parseSpec(specWithExtra(R"(, "backend": "net")"))));
  // A real network cannot re-wire itself per epoch...
  EXPECT_THROW(runner::buildSweep(runner::parseSpec(specWithExtra(
                   R"(, "backend": "net",
                       "dynamics": [{"kind": "crash", "crashes": 1,
                                     "period": 64, "down_for": 24}])"))),
               Error);
  // ...and already realizes the MAC layer itself.
  EXPECT_THROW(runner::buildSweep(runner::parseSpec(specWithExtra(
                   R"(, "backend": "net", "mac": "csma")"))),
               Error);
}

TEST(SpecIo, AxisOverridesApplyThroughTheCodecTable) {
  SpecDoc doc = runner::parseSpec(kMinimalSpec);
  runner::applyAxisOverride(doc, runner::axisCodec("backend"),
                            "net:19000,0.1,200,3,0,0");
  EXPECT_EQ(doc.backend.label(), "net:19000,0.1,200,3,0,0");
  runner::applyAxisOverride(doc, runner::axisCodec("reaction"),
                            "retransmit,retransmit+remis");
  ASSERT_EQ(doc.reactions.size(), 2u);
  EXPECT_EQ(doc.reactions[1].label(), "retransmit+remis");
  runner::applyAxisOverride(doc, runner::axisCodec("kernel"), "serial");
  EXPECT_EQ(doc.kernel.label(), "serial");
  EXPECT_THROW(
      runner::applyAxisOverride(doc, runner::axisCodec("kernel"), "parallel"),
      Error);
  // Errors name the CLI flag the bad value arrived through.
  try {
    runner::applyAxisOverride(doc, runner::axisCodec("backend"), "tcp");
    FAIL() << "expected an override error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--backend"), std::string::npos);
  }
}

TEST(SpecIo, RecordJsonCarriesBackendOnlyWhenNonDefault) {
  runner::RunRecord record;
  record.backend = "net:19000,0.25,200,5,0,0";
  const runner::RunRecord back =
      runner::recordFromJson(runner::recordToJson(record), "record");
  EXPECT_EQ(back.backend, record.backend);
  EXPECT_EQ(back.kernel, "serial");

  // Sim records keep their pre-backend serialization: no "backend" key,
  // while "kernel" (which predates elision) is always present.
  std::ostringstream dumped;
  runner::json::dump(runner::recordToJson(runner::RunRecord{}), dumped);
  EXPECT_EQ(dumped.str().find("\"backend\""), std::string::npos);
  EXPECT_NE(dumped.str().find("\"kernel\""), std::string::npos);
}

#ifdef AMMB_SWEEPS_DIR
TEST(SpecIo, CheckedInCampaignSpecsAreValid) {
  for (const char* name :
       {"ci_smoke", "fig1_standard", "fig2_lowerbound", "online_arrivals"}) {
    const std::string path =
        std::string(AMMB_SWEEPS_DIR) + "/" + name + ".json";
    SCOPED_TRACE(path);
    const SpecDoc doc = runner::loadSpecFile(path);
    const SweepSpec spec = runner::buildSweep(doc);
    EXPECT_GE(spec.runCount(), 1u);
    // The canonical writer must accept its own output.
    EXPECT_EQ(runner::writeSpec(runner::parseSpec(runner::writeSpec(doc))),
              runner::writeSpec(doc));
  }
}
#endif

// --- compare ----------------------------------------------------------------

TEST(Compare, ExactMatchByDefault) {
  const json::Value a = json::parse(R"({"cells": [{"k": 1, "mean": 2.5}]})");
  const json::Value b = json::parse(R"({"cells": [{"k": 1, "mean": 2.5}]})");
  EXPECT_TRUE(runner::compareResults(a, b).empty());

  const json::Value c = json::parse(R"({"cells": [{"k": 1, "mean": 2.6}]})");
  const auto differences = runner::compareResults(a, c);
  ASSERT_EQ(differences.size(), 1u);
  EXPECT_EQ(differences[0].path, "cells[0].mean");
}

TEST(Compare, KeyOrderDoesNotMatter) {
  const json::Value a = json::parse(R"({"x": 1, "y": 2})");
  const json::Value b = json::parse(R"({"y": 2, "x": 1})");
  EXPECT_TRUE(runner::compareResults(a, b).empty());
}

TEST(Compare, ToleranceAdmitsSmallDrift) {
  const json::Value a = json::parse(R"({"mean": 100.0})");
  const json::Value b = json::parse(R"({"mean": 100.5})");
  EXPECT_FALSE(runner::compareResults(a, b).empty());
  CompareOptions rel;
  rel.relTol = 0.01;
  EXPECT_TRUE(runner::compareResults(a, b, rel).empty());
  CompareOptions abs;
  abs.absTol = 0.5;
  EXPECT_TRUE(runner::compareResults(a, b, abs).empty());
}

TEST(Compare, ReportsMissingAndExtraMembers) {
  const json::Value a = json::parse(R"({"x": 1, "gone": 2})");
  const json::Value b = json::parse(R"({"x": 1, "added": 3})");
  const auto differences = runner::compareResults(a, b);
  EXPECT_EQ(differences.size(), 2u);
}

TEST(Compare, ArrayLengthMismatchIsOneDifference) {
  const json::Value a = json::parse(R"({"cells": [1, 2, 3]})");
  const json::Value b = json::parse(R"({"cells": [1, 2]})");
  EXPECT_EQ(runner::compareResults(a, b).size(), 1u);
}

}  // namespace
}  // namespace ammb
