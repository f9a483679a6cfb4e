// Unit tests for the closed-interval algebra shared by the streaming
// MAC-axiom checker and its whole-trace reference (mac/interval_union.h).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mac/interval_union.h"

namespace ammb::mac {
namespace {

std::vector<std::pair<Time, Time>> pairs(const std::vector<Interval>& xs) {
  std::vector<std::pair<Time, Time>> out;
  for (const Interval& x : xs) out.emplace_back(x.lo, x.hi);
  return out;
}

TEST(IntervalUnion, NormalizeSortsMergesAdjacentAndDropsEmpty) {
  // Out of order, touching ([0,2] and [3,4] share no point but leave no
  // gap), one empty interval, and an unbounded one that swallows every
  // interval starting after it.
  const auto out = normalize({{5, 7},
                              {0, 2},
                              {3, 4},
                              {10, 9},
                              {12, kTimeNever},
                              {20, 30}});
  const std::vector<std::pair<Time, Time>> want = {{0, 7},
                                                   {12, kTimeNever}};
  EXPECT_EQ(pairs(out), want);

  // A gap of one tick keeps two intervals apart.
  const std::vector<std::pair<Time, Time>> apart = {{0, 2}, {4, 6}};
  EXPECT_EQ(pairs(normalize({{4, 6}, {0, 2}})), apart);
  EXPECT_TRUE(normalize({}).empty());
}

TEST(IntervalUnion, FirstUncoveredReturnsTheFirstGap) {
  // The gap between two covers.
  EXPECT_EQ(firstUncovered({{0, 10}}, {{0, 3}, {5, 10}}), 4);
  // Adjacent covers leave no gap.
  EXPECT_EQ(firstUncovered({{0, 10}}, {{0, 4}, {5, 10}}), kTimeNever);
  // A fully covered need window is skipped for the next one.
  EXPECT_EQ(firstUncovered({{3, 8}, {12, 15}}, {{3, 8}}), 12);
  // An unbounded need is uncovered right after a bounded cover, and
  // covered by an unbounded one.
  EXPECT_EQ(firstUncovered({{2, kTimeNever}}, {{0, 5}}), 6);
  EXPECT_EQ(firstUncovered({{2, kTimeNever}}, {{0, kTimeNever}}),
            kTimeNever);
  // No cover: the need's own start.  No need: nothing to find.
  EXPECT_EQ(firstUncovered({{7, 9}}, {}), 7);
  EXPECT_EQ(firstUncovered({}, {{0, 1}}), kTimeNever);
}

}  // namespace
}  // namespace ammb::mac
