// Closed-interval unions over Time, the algebra of the progress-bound
// check: a receiver's need set (windows that must hold a contending
// rcv) minus its cover set (windows some rcv already satisfies) must
// be empty.  Header-only so the streaming checker and the whole-trace
// reference used by the parity tests share one definition.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.h"

namespace ammb::mac {

/// Closed interval [lo, hi], hi == kTimeNever meaning +infinity.
struct Interval {
  Time lo;
  Time hi;
};

/// Sorts and merges overlapping/adjacent intervals.
inline std::vector<Interval> normalize(std::vector<Interval> xs) {
  std::sort(xs.begin(), xs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> out;
  for (const Interval& x : xs) {
    if (x.hi != kTimeNever && x.hi < x.lo) continue;
    if (!out.empty() && out.back().hi != kTimeNever &&
        x.lo <= out.back().hi + 1) {
      out.back().hi = (x.hi == kTimeNever)
                          ? kTimeNever
                          : std::max(out.back().hi, x.hi);
    } else if (!out.empty() && out.back().hi == kTimeNever) {
      // Everything later is already covered.
      continue;
    } else {
      out.push_back(x);
    }
  }
  return out;
}

/// First point of `need` not covered by `cover`, or kTimeNever.
inline Time firstUncovered(const std::vector<Interval>& needRaw,
                           const std::vector<Interval>& coverRaw) {
  const auto need = normalize(needRaw);
  const auto cover = normalize(coverRaw);
  for (const Interval& nd : need) {
    Time t = nd.lo;
    for (const Interval& cv : cover) {
      if (nd.hi != kTimeNever && t > nd.hi) break;
      if (cv.lo > t) break;
      if (cv.hi == kTimeNever) {
        t = kTimeNever;
        break;
      }
      if (cv.hi >= t) t = cv.hi + 1;
    }
    if (t != kTimeNever && (nd.hi == kTimeNever || t <= nd.hi)) return t;
  }
  return kTimeNever;
}

}  // namespace ammb::mac
