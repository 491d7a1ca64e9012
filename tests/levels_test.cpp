#include <gtest/gtest.h>

#include "core/levels.hpp"
#include "util/assert.hpp"

namespace reasched {
namespace {

TEST(LevelTable, PaperConstants) {
  const LevelTable table = LevelTable::paper();
  EXPECT_EQ(table.level_count(), 3u);
  EXPECT_EQ(table.max_span(0), 32u);    // L1 = 2^5
  EXPECT_EQ(table.max_span(1), 256u);   // L2 = 2^{32/4} = 2^8
  EXPECT_EQ(table.max_span(2), pow2(62));  // L3 = 2^64 capped to Time range
  EXPECT_EQ(table.interval_size(1), 32u);
  EXPECT_EQ(table.interval_size(2), 256u);
  EXPECT_EQ(table.interval_size_log(1), 5u);
  EXPECT_EQ(table.interval_size_log(2), 8u);
}

TEST(LevelTable, LevelOfSpans) {
  const LevelTable table = LevelTable::paper();
  EXPECT_EQ(table.level_of(1), 0u);
  EXPECT_EQ(table.level_of(32), 0u);
  EXPECT_EQ(table.level_of(33), 1u);
  EXPECT_EQ(table.level_of(64), 1u);
  EXPECT_EQ(table.level_of(256), 1u);
  EXPECT_EQ(table.level_of(257), 2u);
  EXPECT_EQ(table.level_of(pow2(40)), 2u);
  EXPECT_EQ(table.level_of(pow2(62)), 2u);
}

TEST(LevelTable, LevelOfRejectsOutOfRange) {
  const LevelTable table = LevelTable::paper();
  EXPECT_THROW((void)table.level_of(0), ContractViolation);
  EXPECT_THROW((void)table.level_of(pow2(62) + 1), ContractViolation);
}

TEST(LevelTable, LogStarGrowth) {
  // The tower growth is the whole point: each threshold is exponential in
  // the previous, so the number of levels for span Δ is O(log* Δ).
  const LevelTable table = LevelTable::paper();
  EXPECT_LE(table.level_count(), 3u);  // covers spans up to 2^62 with 3 levels
}

TEST(LevelTable, CustomTowerValidated) {
  // Valid: lg(L_{l+1}) <= L_l / 4 at every step.
  EXPECT_NO_THROW(LevelTable::custom({32, 256, pow2(16), pow2(62)}));
  EXPECT_NO_THROW(LevelTable::custom({64, pow2(16)}));
  // Invalid: first threshold too small.
  EXPECT_THROW(LevelTable::custom({16, 64}), ContractViolation);
  // Invalid: not increasing.
  EXPECT_THROW(LevelTable::custom({64, 64}), ContractViolation);
  // Invalid: not a power of two.
  EXPECT_THROW(LevelTable::custom({48, 256}), ContractViolation);
  // Invalid: Equation (1) violated — lg(2^40) = 40 > 32/4 = 8.
  EXPECT_THROW(LevelTable::custom({32, pow2(40)}), ContractViolation);
}

TEST(LevelTable, CustomTowerReachesDeepLevels) {
  const LevelTable table = LevelTable::custom({32, 256, pow2(16), pow2(62)});
  EXPECT_EQ(table.level_count(), 4u);
  EXPECT_EQ(table.level_of(512), 2u);
  EXPECT_EQ(table.level_of(pow2(16)), 2u);
  EXPECT_EQ(table.level_of(pow2(17)), 3u);
  EXPECT_EQ(table.interval_size(3), pow2(16));
}

TEST(LevelTable, IntervalSizeUndefinedForLevel0) {
  const LevelTable table = LevelTable::paper();
  EXPECT_THROW((void)table.interval_size(0), ContractViolation);
}

}  // namespace
}  // namespace reasched
