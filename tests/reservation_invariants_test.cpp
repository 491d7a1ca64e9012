// White-box tests of the reservation machinery: Invariant 5 arithmetic,
// fulfillment priority, Lemma 8 surplus, Observation 7 history independence.
#include <gtest/gtest.h>

#include "core/reservation_scheduler.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

SchedulerOptions bare() {
  SchedulerOptions options;
  options.trimming = false;
  options.audit_policy.mode = audit::Mode::kFull;
  return options;
}

using Entries = std::vector<ReservationScheduler::FulfillmentEntry>;

const ReservationScheduler::FulfillmentEntry* row_for(const Entries& entries,
                                                      Window w) {
  for (const auto& entry : entries) {
    if (entry.window.window() == w) return &entry;
  }
  return nullptr;
}

TEST(ReservationLedger, BaselineOneReservationPerInterval) {
  ReservationScheduler s(bare());
  // No jobs at all: every window holds exactly its baseline reservation.
  const auto entries = s.fulfillment_of_interval(1, 0);
  ASSERT_FALSE(entries.empty());
  for (const auto& entry : entries) {
    EXPECT_FALSE(entry.active);
    EXPECT_EQ(entry.reservations, 1u);
    EXPECT_EQ(entry.fulfilled, 1u);  // empty interval fulfils everything
  }
}

TEST(ReservationLedger, Invariant5TotalsAndRoundRobin) {
  ReservationScheduler s(bare());
  // Window [0, 256): level 1, 2^k = 8 intervals of 32 slots.
  const Window w{0, 256};
  for (unsigned x = 1; x <= 12; ++x) {
    s.insert(JobId{x}, w);
    std::uint64_t total = 0;
    std::uint32_t low = ~0u;
    std::uint32_t high = 0;
    std::uint32_t previous = ~0u;
    bool monotone_after_drop = true;
    for (Time base = 0; base < 256; base += 32) {
      const auto entries = s.fulfillment_of_interval(1, base);
      const auto* row = row_for(entries, w);
      ASSERT_NE(row, nullptr);
      EXPECT_TRUE(row->active);
      total += row->reservations;
      low = std::min(low, row->reservations);
      high = std::max(high, row->reservations);
      if (previous != ~0u && row->reservations > previous) monotone_after_drop = false;
      previous = row->reservations;
    }
    // Invariant 5: total = 2x + 2^k, counts differ by at most 1, and the
    // leftmost intervals carry the extras (monotone non-increasing).
    EXPECT_EQ(total, 2ull * x + 8) << "x=" << x;
    EXPECT_LE(high - low, 1u) << "x=" << x;
    EXPECT_TRUE(monotone_after_drop) << "x=" << x;
    EXPECT_EQ(low, (2 * x) / 8 + 1) << "x=" << x;
  }
}

TEST(ReservationLedger, ShorterWindowsHavePriority) {
  ReservationScheduler s(bare());
  // Saturate a level-1 interval's allowance with level-0 jobs, shrinking
  // what is left for level-1 windows: shortest window wins the remainder.
  const Window short_window{0, 64};
  const Window long_window{0, 256};
  for (unsigned i = 0; i < 4; ++i) s.insert(JobId{i + 1}, short_window);
  for (unsigned i = 0; i < 4; ++i) s.insert(JobId{100 + i}, long_window);
  // Fill slots [0, 28) of interval [0, 32) with level-0 jobs.
  for (unsigned i = 0; i < 28; ++i) s.insert(JobId{1000 + i}, Window{0, 32});

  const auto entries = s.fulfillment_of_interval(1, 0);
  const auto* short_row = row_for(entries, short_window);
  const auto* long_row = row_for(entries, long_window);
  ASSERT_NE(short_row, nullptr);
  ASSERT_NE(long_row, nullptr);
  // Allowance is 4 slots; the short window's demand is served first.
  EXPECT_EQ(short_row->fulfilled,
            std::min<std::uint32_t>(short_row->reservations, 4));
  EXPECT_LE(long_row->fulfilled + short_row->fulfilled, 4u);
  EXPECT_LE(long_row->fulfilled, long_row->reservations);
}

TEST(ReservationLedger, Lemma8SurplusHolds) {
  // Under 8-underallocation every window with x jobs has >= x+1 fulfilled
  // reservations in total.
  ReservationScheduler s(bare());
  const Window w{0, 256};
  for (unsigned x = 1; x <= 20; ++x) {  // 256/8 = 32 budget; stay below
    s.insert(JobId{x}, w);
    std::uint64_t fulfilled = 0;
    for (Time base = 0; base < 256; base += 32) {
      const auto entries = s.fulfillment_of_interval(1, base);
      const auto* row = row_for(entries, w);
      ASSERT_NE(row, nullptr);
      fulfilled += row->fulfilled;
    }
    EXPECT_GE(fulfilled, static_cast<std::uint64_t>(x) + 1) << "x=" << x;
  }
}

TEST(ReservationLedger, HistoryIndependenceObservation7) {
  // Build the same active set along three different request histories; the
  // fulfillment tables must be identical (Observation 7).
  const Window a{0, 64};
  const Window b{0, 256};
  const Window c{64, 128};
  const Window level0{0, 16};

  auto fulfillment_signature = [](ReservationScheduler& s) {
    std::vector<std::uint32_t> signature;
    for (Time base = 0; base < 256; base += 32) {
      for (const auto& entry : s.fulfillment_of_interval(1, base)) {
        signature.push_back(entry.reservations);
        signature.push_back(entry.fulfilled);
      }
    }
    return signature;
  };

  ReservationScheduler s1(bare());
  s1.insert(JobId{1}, a);
  s1.insert(JobId{2}, a);
  s1.insert(JobId{3}, b);
  s1.insert(JobId{4}, c);
  s1.insert(JobId{5}, level0);

  ReservationScheduler s2(bare());
  s2.insert(JobId{5}, level0);
  s2.insert(JobId{4}, c);
  s2.insert(JobId{3}, b);
  s2.insert(JobId{2}, a);
  s2.insert(JobId{1}, a);

  ReservationScheduler s3(bare());
  // Same multiset reached through inserts and deletes.
  s3.insert(JobId{9}, b);
  s3.insert(JobId{1}, a);
  s3.insert(JobId{3}, b);
  s3.erase(JobId{9});
  s3.insert(JobId{2}, a);
  s3.insert(JobId{8}, a);
  s3.insert(JobId{4}, c);
  s3.erase(JobId{8});
  s3.insert(JobId{5}, level0);

  EXPECT_EQ(fulfillment_signature(s1), fulfillment_signature(s2));
  EXPECT_EQ(fulfillment_signature(s1), fulfillment_signature(s3));
}

TEST(ReservationLedger, FulfillmentRespectsAllowance) {
  ReservationScheduler s(bare());
  const Window w{0, 64};
  s.insert(JobId{1}, w);
  s.insert(JobId{2}, w);
  // Sum of fulfilled never exceeds the interval size minus lower-level jobs.
  for (unsigned i = 0; i < 16; ++i) s.insert(JobId{100 + i}, Window{0, 32});
  const auto entries = s.fulfillment_of_interval(1, 0);
  std::uint64_t total_fulfilled = 0;
  for (const auto& entry : entries) total_fulfilled += entry.fulfilled;
  EXPECT_LE(total_fulfilled, 32u - 16u);
}

TEST(ReservationLedger, DeepTowerLevelsWork) {
  // Custom tower makes level 3 reachable at span 2^17: exercise the
  // cross-level machinery deeper than the paper constants allow.
  SchedulerOptions options;
  options.trimming = false;
  options.audit_policy.mode = audit::Mode::kFull;
  options.levels = LevelTable::custom({32, 256, pow2(16), pow2(62)});
  ReservationScheduler s(options);
  s.insert(JobId{1}, Window{0, static_cast<Time>(pow2(17))});  // level 3
  s.insert(JobId{2}, Window{0, static_cast<Time>(pow2(12))});  // level 2
  s.insert(JobId{3}, Window{0, 64});                           // level 1
  s.insert(JobId{4}, Window{0, 8});                            // level 0
  EXPECT_EQ(s.active_jobs(), 4u);
  s.erase(JobId{2});
  s.erase(JobId{1});
  s.erase(JobId{4});
  s.erase(JobId{3});
  EXPECT_EQ(s.active_jobs(), 0u);
}

}  // namespace
}  // namespace reasched
