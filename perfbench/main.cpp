// The repository benchmark binary.
//
//   ammb_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--size full|smoke] [--spec <fig1 spec file>]
//
// Repeats reps of one workload until --seconds of host time have passed
// (at least kMinPlainReps untraced reps), checks every rep's simulated
// outcome, and prints each metric with its unit, then one JSON object
// as the last line of stdout.  --trace 0 reports the end-to-end metrics
// from untraced reps; --trace 1 alternates traced and untraced reps and
// reports the per-layer ledger.  Exits 1 when any output is wrong and 2
// on a usage or set-up error.  perfbench/README.md has the metric list.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

using perfbench::RepResult;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"us_per_rcv", "us"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.g_edges", "count"},
    {"graph.gp_only_edges", "count"},
    {"core.experiment_init_s", "s"},
    {"mac.bcasts", "count"},
    {"mac.rcvs", "count"},
    {"mac.forced_rcvs", "count"},
    {"mac.forced_share", "ratio"},
    {"mac.acks", "count"},
    {"mac.aborts", "count"},
    {"core.delivers", "count"},
    {"core.solve_ticks", "ticks"},
    {"mac.instances", "count"},
    {"mac.sched.plan_s", "s"},
    {"mac.sched.plans", "count"},
    {"mac.sched.planned_deliveries", "count"},
    {"mac.sched.pick_s", "s"},
    {"mac.sched.picks", "count"},
    {"mac.engine_self_s", "s"},
    {"mac.engine_self_ns_per_rcv", "ns"},
    {"sim.trace.records", "count"},
    {"check.hash_s", "s"},
    {"check.checker_s", "s"},
    {"check.checker_ns_per_record", "ns"},
    {"check.finish_s", "s"},
    {"runner.run_ms_p50", "ms"},
    {"runner.run_ms_p95", "ms"},
    {"runner.aggregate_s", "s"},
    {"runner.emit_s", "s"},
    {"runner.emit_bytes", "bytes"},
    {"rss_after_setup_mb", "MiB"},
    {"rss_after_run_mb", "MiB"},
    {"trace_overhead", "ratio"},
};

/// Untraced reps a --trace 0 run takes at least, so its medians never
/// rest on fewer samples even when one rep outlasts --seconds.
constexpr std::size_t kMinPlainReps = 3;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Shortest decimal that reads back as `value`.
std::string number(double value) {
  char buf[64];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

struct Args {
  perfbench::WorkloadInput input;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ammb_perfbench: " << why
            << "\nusage: ammb_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--size full|smoke] "
               "[--spec PATH]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.input.name = value;
      } else if (flag == "--seed") {
        args.input.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "smoke") {
          usage("--size takes full or smoke");
        }
        args.input.size = value == "smoke" ? perfbench::Size::kSmoke
                                           : perfbench::Size::kFull;
      } else if (flag == "--spec") {
        args.input.specPath = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const std::vector<std::string>& names = perfbench::workloadNames();
  if (std::find(names.begin(), names.end(), args.input.name) == names.end()) {
    usage("unknown workload '" + args.input.name + "'");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  try {
    const perfbench::Clock::time_point start = perfbench::Clock::now();
    for (;;) {
      if (args.trace) {
        traced.push_back(perfbench::runRep(args.input, true));
        std::cerr << "traced rep " << traced.size() << ": wall "
                  << traced.back().wallS << " s\n";
      }
      plain.push_back(perfbench::runRep(args.input, false));
      std::cerr << "untraced rep " << plain.size() << ": wall "
                << plain.back().wallS << " s\n";
      const bool enough = args.trace || plain.size() >= kMinPlainReps;
      if (enough && perfbench::secondsSince(start) >= args.seconds) break;
    }
  } catch (const std::exception& e) {
    std::cerr << "ammb_perfbench: " << e.what() << '\n';
    return 2;
  }

  // Correctness: every rep must reproduce the first untraced rep's
  // fingerprint (and the pinned one at the default seed), solve, and
  // pass its oracles.
  const std::string& reference = plain.front().fingerprint;
  const std::string pinned = perfbench::pinnedFingerprint(args.input);
  std::cerr << "fingerprint: " << reference << '\n';
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<const RepResult*> reps;
  for (const RepResult& r : plain) reps.push_back(&r);
  for (const RepResult& r : traced) reps.push_back(&r);
  for (const RepResult* rep : reps) {
    const bool mismatch = rep->fingerprint != reference ||
                          (!pinned.empty() && rep->fingerprint != pinned);
    if (mismatch) {
      std::cerr << "FINGERPRINT MISMATCH\n  got:      " << rep->fingerprint
                << "\n  expected: " << (pinned.empty() ? reference : pinned)
                << '\n';
    }
    for (const std::string& p : rep->problems) {
      std::cerr << "FAILED " << p << '\n';
    }
    attempted += rep->runs;
    failed += std::max<std::uint64_t>(rep->failedRuns, mismatch ? 1 : 0);
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!args.trace) {
    std::vector<double> setup;
    std::vector<double> wall;
    std::vector<double> perRcv;
    for (const RepResult& r : plain) {
      setup.insert(setup.end(), r.setupS.begin(), r.setupS.end());
      wall.push_back(r.wallS);
      perRcv.push_back(r.rcvs > 0 ? r.wallS * 1e6 / static_cast<double>(r.rcvs)
                                  : 0.0);
    }
    metrics.push_back({kEndToEnd[0], median(setup)});
    metrics.push_back({kEndToEnd[1], median(wall)});
    metrics.push_back({kEndToEnd[2], median(perRcv)});
    metrics.push_back({kEndToEnd[3], perfbench::peakRssMb()});
  } else {
    std::vector<double> plainWall;
    std::vector<double> tracedWall;
    for (const RepResult& r : plain) plainWall.push_back(r.wallS);
    for (const RepResult& r : traced) {
      tracedWall.push_back(r.wallS);
      // A ledger key outside the metric table would never be printed.
      for (const auto& entry : r.ledger) {
        const bool listed = std::any_of(
            std::begin(kPerLayer), std::end(kPerLayer),
            [&](const MetricDef& def) { return entry.first == def.name; });
        if (!listed) {
          std::cerr << "ammb_perfbench: unlisted ledger key " << entry.first
                    << '\n';
          return 2;
        }
      }
    }
    for (const MetricDef& def : kPerLayer) {
      const std::string name = def.name;
      if (name == "trace_overhead") {
        metrics.push_back({def, median(tracedWall) / median(plainWall)});
        continue;
      }
      // Resident memory is read from the first traced rep only: later
      // reps start on the heap earlier reps left behind.
      const bool firstRepOnly = name.rfind("rss_", 0) == 0;
      std::vector<double> values;
      for (const RepResult& r : traced) {
        const auto it = r.ledger.find(name);
        values.push_back(it != r.ledger.end() ? it->second : 0.0);
        if (firstRepOnly) break;
      }
      metrics.push_back({def, median(values)});
    }
  }

  std::cout << "workload " << args.input.name << "  seed " << args.input.seed
            << "  untraced reps " << plain.size() << "  traced reps "
            << traced.size() << "  runs " << attempted << "  failed " << failed
            << '\n';
  for (const auto& [def, value] : metrics) {
    std::printf("  %-30s %14s %s\n", def.name, number(value).c_str(), def.unit);
  }
  std::string json = "{\"correct\": " +
                     std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(metrics[i].first.name) + "\": {\"value\": " +
            number(metrics[i].second) + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return failed == 0 ? 0 : 1;
}
