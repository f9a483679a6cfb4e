// A compact set of MMB message ids.
//
// MMB workloads number their k messages 0..k-1, so per-node message
// sets are dense: a bitset answers membership with one word probe and
// costs k/8 bytes, where a hash set costs a bucket array plus a node
// per member.  Ids at or above kDenseLimit (never produced by the
// committed workloads) go to a sorted vector instead, so one stray
// large id cannot inflate the bitset.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace ammb::core {

class MsgSet {
 public:
  /// Ids below this live in the bitset (8 KiB at most per set).
  static constexpr MsgId kDenseLimit = 1 << 16;

  bool contains(MsgId m) const {
    if (m < kDenseLimit) {
      const auto w = static_cast<std::size_t>(m) >> 6;
      return w < bits_.size() && ((bits_[w] >> (m & 63)) & 1U) != 0;
    }
    return std::binary_search(sparse_.begin(), sparse_.end(), m);
  }

  /// Adds `m`; false if it was already a member.
  bool insert(MsgId m) {
    AMMB_ASSERT(m >= 0);
    if (m < kDenseLimit) {
      const auto w = static_cast<std::size_t>(m) >> 6;
      if (w >= bits_.size()) bits_.resize(w + 1, 0);
      const std::uint64_t bit = std::uint64_t{1} << (m & 63);
      if ((bits_[w] & bit) != 0) return false;
      bits_[w] |= bit;
    } else {
      const auto it = std::lower_bound(sparse_.begin(), sparse_.end(), m);
      if (it != sparse_.end() && *it == m) return false;
      sparse_.insert(it, m);
    }
    ++size_;
    return true;
  }

  std::size_t size() const { return size_; }

  /// The members in ascending order.
  std::vector<MsgId> sorted() const {
    std::vector<MsgId> out;
    out.reserve(size_);
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        out.push_back(static_cast<MsgId>(w * 64 + __builtin_ctzll(word)));
      }
    }
    out.insert(out.end(), sparse_.begin(), sparse_.end());
    return out;
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<MsgId> sparse_;  ///< ids >= kDenseLimit, ascending
  std::size_t size_ = 0;
};

}  // namespace ammb::core
