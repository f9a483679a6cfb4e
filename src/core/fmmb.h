// Fast Multi-Message Broadcast (FMMB) — Section 4 of the paper.
//
// Requires the enhanced abstract MAC layer and a grey-zone restricted
// G'.  Stage structure:
//
//   1. MIS construction (core/mis.h), fixed length params.misRounds();
//   2. dissemination: the gather (core/gather.h) and spread
//      (core/spread.h) subroutines.  Because k is unknown, the default
//      mode interleaves them — even dissemination rounds belong to
//      gather, odd rounds to spread, both running indefinitely (MMB
//      requires no termination detection: the problem is solved when
//      the deliver events have happened).  Sequential mode reproduces
//      the paper's narrative (gather stage sized by a k hint, then
//      spread), at the cost of assuming k.
//
// Every node delivers a message the first time it learns it (arrival,
// gather upload/ack, or spread payload).
//
// Theorem 4.1: O((D log n + k log n + log^3 n) Fprog) to solve MMB,
// w.h.p. — no Fack term, which is the entire point of the enhanced
// model (compare BMMB's Fack-bound lower bounds in Section 3).
#pragma once

#include <set>
#include <unordered_map>

#include "core/fmmb_params.h"
#include "core/fmmb_state.h"
#include "core/gather.h"
#include "core/mis.h"
#include "core/reaction.h"
#include "core/rounds.h"
#include "core/spread.h"
#include "mac/engine.h"

namespace ammb::core {

/// One FMMB automaton (enhanced model only).
///
/// Under ReactionSpec::kRetransmitRemis the automaton is epoch-aware:
/// an engine epoch boundary marks the schedule for a rebase, and at
/// the next lock-step round start every node (all nodes see the same
/// boundary, so all rebase at the same round) restarts the MIS /
/// gather / spread pipeline over the *current* epoch's graph.  Message
/// knowledge (`arrived`, `known`) survives the rebase — deliveries are
/// monotone — while the shared dissemination sets are re-filed from
/// the arrivals under the freshly recomputed roles.
class FmmbProcess : public RoundedProcess {
 public:
  explicit FmmbProcess(const FmmbParams& params, ReactionSpec reaction = {})
      : params_(params),
        reaction_(reaction),
        mis_(params),
        gather_(params, shared_),
        spread_(params, shared_) {}

  void onArrive(mac::Context& ctx, MsgId msg) override;
  void onReceive(mac::Context& ctx, const mac::Packet& packet) override;
  void onEpochChange(mac::Context& ctx,
                     const mac::EpochChange& change) override;

  /// Final MIS role and message-set state (for tests/examples).
  const MisSubroutine& mis() const { return mis_; }
  const FmmbShared& shared() const { return shared_; }
  const std::set<MsgId>& known() const { return known_; }

  /// Schedule rebases this node performed (0 except under remis).
  std::uint64_t retransmits() const { return retransmits_; }

 protected:
  void onRoundStart(mac::Context& ctx, std::int64_t round) override;

 private:
  /// (isGather, virtual round) for a dissemination round index.
  std::pair<bool, std::int64_t> disseminationSlot(std::int64_t dr) const;
  /// Round index relative to the last remis rebase (the whole
  /// MIS/gather/spread schedule is phrased in logical rounds).
  std::int64_t logicalRound(std::int64_t round) const {
    return round - base_;
  }
  void fixRoles();
  void learn(mac::Context& ctx, MsgId msg);

  FmmbParams params_;
  ReactionSpec reaction_;
  MisSubroutine mis_;
  FmmbShared shared_;
  GatherSubroutine gather_;
  SpreadSubroutine spread_;
  std::set<MsgId> arrived_;
  std::set<MsgId> known_;
  bool rolesFixed_ = false;
  std::int64_t base_ = 0;     ///< logical-round origin (post-rebase)
  bool remisPending_ = false; ///< boundary seen; rebase at next round
  std::uint64_t retransmits_ = 0;
};

/// Factory + registry for FMMB runs.
class FmmbSuite {
 public:
  explicit FmmbSuite(FmmbParams params, ReactionSpec reaction = {})
      : params_(params), reaction_(reaction) {}

  mac::MacLayer::ProcessFactory factory() {
    return [this](NodeId node) {
      auto p = std::make_unique<FmmbProcess>(params_, reaction_);
      byNode_[node] = p.get();
      return p;
    };
  }

  const FmmbProcess& process(NodeId node) const {
    auto it = byNode_.find(node);
    AMMB_REQUIRE(it != byNode_.end(), "unknown node (engine not built yet?)");
    return *it->second;
  }

  const FmmbParams& params() const { return params_; }

  /// Sum of every node's schedule rebases.
  std::uint64_t totalRetransmits() const {
    std::uint64_t total = 0;
    for (const auto& [node, process] : byNode_) {
      total += process->retransmits();
    }
    return total;
  }

 private:
  FmmbParams params_;
  ReactionSpec reaction_;
  std::unordered_map<NodeId, const FmmbProcess*> byNode_;
};

}  // namespace ammb::core
