// The MIS subroutine of FMMB (Section 4.2) — "of independent interest".
//
// Builds a maximal independent set of G in O(c^4 log^3 n) rounds,
// w.h.p., against any model-compliant scheduler on a grey-zone
// topology.  Each phase runs an election part (active nodes broadcast
// random 4 log n-bit strings bit-by-bit; a silent node that hears
// anything stands down for the phase; survivors join the MIS) followed
// by an announcement part (fresh MIS members broadcast their id with
// probability Theta(1/c^2); a node hearing an announcement from a
// *G-neighbor* leaves the protocol for good).
//
// MisSubroutine is a passive state machine driven by its owner's round
// callbacks, so FMMB embeds it and MisProcess wraps it standalone.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/fmmb_params.h"
#include "core/rounds.h"
#include "mac/engine.h"
#include "mac/process.h"

namespace ammb::core {

/// Lifecycle of a node inside the MIS construction.
enum class MisStatus : std::uint8_t {
  kActive,        ///< contending in the current phase
  kTempInactive,  ///< lost this phase's election; retries next phase
  kPermInactive,  ///< heard a G-neighbor join the MIS; covered forever
  kInMis,         ///< joined the MIS
};

/// The MIS state machine.  Drive it with onRoundStart for rounds
/// 0 .. params.misRounds()-1 and forward packets via onReceive.
class MisSubroutine {
 public:
  explicit MisSubroutine(const FmmbParams& params) : params_(params) {}

  /// Round hook; `round` is MIS-stage-local.  May broadcast.
  void onRoundStart(mac::Context& ctx, int round);

  /// Packet hook (election bits / announcements), with the current
  /// MIS-stage-local round.
  void onReceive(mac::Context& ctx, const mac::Packet& packet, int round);

  /// True once `round >= params.misRounds()`.
  bool finished(int round) const { return round >= params_.misRounds(); }

  /// This node's final (or current) status.
  MisStatus status() const { return status_; }
  bool inMis() const { return status_ == MisStatus::kInMis; }

  /// MIS-stage round at which this node reached a permanent decision
  /// (joined, or heard a G-neighbor join), or -1 while undecided.
  /// Ablation benches use the max over nodes as the empirical
  /// convergence time, to compare against the O(c^4 log^3 n) bound.
  int decidedRound() const { return decidedRound_; }

 private:
  struct RoundPos {
    int phase;
    int inPhase;
    bool election;  ///< true: election round `inPhase`; false: announce
  };
  RoundPos locate(int round) const;

  void decide(int round) {
    if (decidedRound_ < 0) decidedRound_ = round;
  }

  FmmbParams params_;
  MisStatus status_ = MisStatus::kActive;
  bool joinedThisPhase_ = false;
  bool broadcastThisRound_ = false;
  std::uint64_t bits_ = 0;
  int decidedRound_ = -1;
};

/// Standalone MIS protocol: runs the subroutine, then idles.
class MisProcess : public RoundedProcess {
 public:
  explicit MisProcess(const FmmbParams& params) : mis_(params) {}

  void onReceive(mac::Context& ctx, const mac::Packet& packet) override {
    if (!mis_.finished(static_cast<int>(round()))) {
      mis_.onReceive(ctx, packet, static_cast<int>(round()));
    }
  }

  const MisSubroutine& mis() const { return mis_; }

 protected:
  void onRoundStart(mac::Context& ctx, std::int64_t round) override {
    if (!mis_.finished(static_cast<int>(round))) {
      mis_.onRoundStart(ctx, static_cast<int>(round));
    }
  }

 private:
  MisSubroutine mis_;
};

/// Factory + registry for standalone MIS runs.
class MisSuite {
 public:
  explicit MisSuite(FmmbParams params) : params_(params) {}

  mac::MacLayer::ProcessFactory factory() {
    return [this](NodeId node) {
      auto p = std::make_unique<MisProcess>(params_);
      byNode_[node] = p.get();
      return p;
    };
  }

  const MisProcess& process(NodeId node) const {
    auto it = byNode_.find(node);
    AMMB_REQUIRE(it != byNode_.end(), "unknown node (engine not built yet?)");
    return *it->second;
  }

  const FmmbParams& params() const { return params_; }

 private:
  FmmbParams params_;
  std::unordered_map<NodeId, const MisProcess*> byNode_;
};

}  // namespace ammb::core
