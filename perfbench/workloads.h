// The benchmark's three workloads.  Each rep builds its input from the
// workload seed, runs it through the library's public calls, and
// reports host timings plus a fingerprint of the simulated outcome.
// An untraced rep gives the end-to-end figures; a traced rep installs
// the ledger.h wrappers and also fills the per-layer ledger.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The seed at which each workload's fingerprint is pinned.
constexpr std::uint64_t kDefaultSeed = 1;

/// Per-layer metric values of one traced rep, keyed by metric name.
using Ledger = std::map<std::string, double>;

/// Outcome of one rep (one pass over the workload's input).
struct RepResult {
  /// Set-up samples taken in this rep (host seconds).
  std::vector<double> setupS;
  /// Run, streaming check and finish (the whole sweep, with
  /// aggregation and emit, on fig1-sweep), host seconds.
  double wallS = 0.0;
  /// Simulated receive events, summed over the rep's runs.
  std::uint64_t rcvs = 0;
  std::uint64_t runs = 0;
  /// Runs that errored, did not solve, or reported an oracle violation.
  std::uint64_t failedRuns = 0;
  /// Deterministic summary of the simulated outcome; equal across reps,
  /// across traced and untraced passes, and, at kDefaultSeed, equal to
  /// the pinned value.
  std::string fingerprint;
  /// Human-readable reasons for failedRuns.
  std::vector<std::string> problems;
  /// Filled by traced reps only.
  Ledger ledger;
};

/// Which input size a workload runs at.
enum class Size { kFull, kSmoke };

struct WorkloadInput {
  std::string name;
  Size size = Size::kFull;
  std::uint64_t seed = kDefaultSeed;
  /// The fig1-sweep spec file.
  std::string specPath;
};

/// Workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workloadNames();

/// One rep of `input`; `traced` installs the layer wrappers.
RepResult runRep(const WorkloadInput& input, bool traced);

/// The fingerprint pinned for `input` (empty unless at kDefaultSeed).
std::string pinnedFingerprint(const WorkloadInput& input);

}  // namespace perfbench
