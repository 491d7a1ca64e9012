// Edge cases across the model boundary: negative timelines, extreme spans,
// id reuse, minimal windows, and other corners a downstream user will hit.
#include <gtest/gtest.h>

#include "core/incremental_rebuild.hpp"
#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "schedule/validator.hpp"
#include "service/reallocating_scheduler.hpp"

namespace reasched {
namespace {

SchedulerOptions audited() {
  SchedulerOptions options;
  options.audit_policy.mode = audit::Mode::kFull;
  return options;
}

TEST(EdgeCases, NegativeTimelineReservation) {
  ReservationScheduler s(audited());
  std::unordered_map<JobId, Window> active;
  // Aligned windows straddling/below zero.
  const std::vector<Window> windows = {
      {-256, 0}, {-128, -64}, {-64, -32}, {-32, -24}, {-1024, 0},
  };
  std::uint64_t next = 1;
  for (const auto& w : windows) {
    for (int i = 0; i < 3; ++i) {
      const JobId id{next++};
      ASSERT_NO_THROW(s.insert(id, w)) << w;
      active.emplace(id, w);
    }
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  while (next > 1) s.erase(JobId{--next});
  EXPECT_EQ(s.active_jobs(), 0u);
}

TEST(EdgeCases, NegativeTimelinePipeline) {
  ReallocatingScheduler s(2);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  for (Time start = -5000; start < 0; start += 977) {
    const Window w{start, start + 300};
    const JobId id{next++};
    s.insert(id, w);
    active.emplace(id, w);
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(EdgeCases, SpanOneWindows) {
  ReservationScheduler s(audited());
  // Span-1 windows: the job must land exactly there.
  s.insert(JobId{1}, Window{41, 42});
  EXPECT_EQ(s.snapshot().find(JobId{1})->slot, 41);
  // A second one on the same slot is infeasible.
  EXPECT_THROW(s.insert(JobId{2}, Window{41, 42}), InfeasibleError);
  // A span-1 job displaces a longer job sitting on its only slot.
  s.insert(JobId{3}, Window{40, 48});
  const Time slot3 = s.snapshot().find(JobId{3})->slot;
  if (slot3 == 44) {
    s.insert(JobId{4}, Window{44, 45});
    EXPECT_EQ(s.snapshot().find(JobId{4})->slot, 44);
    EXPECT_NE(s.snapshot().find(JobId{3})->slot, 44);
  }
}

TEST(EdgeCases, MaximalSpanAccepted) {
  SchedulerOptions options = audited();
  options.trimming = false;
  ReservationScheduler s(options);
  const Time huge = static_cast<Time>(pow2(62));
  ASSERT_NO_THROW(s.insert(JobId{1}, Window{0, huge}));
  const auto p = s.snapshot().find(JobId{1});
  ASSERT_TRUE(p.has_value());
  EXPECT_GE(p->slot, 0);
  EXPECT_LT(p->slot, huge);
}

TEST(EdgeCases, IdReuseAfterErase) {
  ReservationScheduler s(audited());
  for (int round = 0; round < 5; ++round) {
    s.insert(JobId{7}, Window{0, 64});
    s.erase(JobId{7});
  }
  EXPECT_EQ(s.active_jobs(), 0u);
}

TEST(EdgeCases, LargeJobIdValues) {
  ReservationScheduler s(audited());
  const JobId id{~std::uint64_t{0}};
  s.insert(id, Window{0, 64});
  EXPECT_TRUE(s.snapshot().find(id).has_value());
  s.erase(id);
}

TEST(EdgeCases, InterleavedLevelsAtBoundarySpans) {
  // Spans exactly at the level thresholds: 32 (level 0), 64 (level 1),
  // 256 (level 1), 512 (level 2).
  SchedulerOptions options = audited();
  options.trimming = false;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  for (const Time span : {32, 64, 256, 512}) {
    for (int i = 0; i < 3; ++i) {
      const JobId id{next++};
      const Window w{0, span};
      s.insert(id, w);
      active.emplace(id, w);
    }
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  // Delete in insertion order (stresses reservation removal at every level).
  for (std::uint64_t i = 1; i < next; ++i) s.erase(JobId{i});
  EXPECT_EQ(s.active_jobs(), 0u);
}

TEST(EdgeCases, AdjacentWindowsDoNotInterfere) {
  ReservationScheduler s(audited());
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  for (Time block = 0; block < 8; ++block) {
    const Window w{block * 64, (block + 1) * 64};
    for (int i = 0; i < 8; ++i) {
      const JobId id{next++};
      s.insert(id, w);
      active.emplace(id, w);
    }
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  // Every job must be inside its own block.
  const auto snap = s.snapshot();
  for (const auto& [id, w] : active) {
    EXPECT_TRUE(w.contains(snap.find(id)->slot));
  }
}

TEST(EdgeCases, IncrementalRebuildNegativeTimeline) {
  IncrementalRebuildScheduler s(audited());
  std::unordered_map<JobId, Window> active;
  for (unsigned i = 0; i < 6; ++i) {
    const Window w{-512, -256};
    const JobId id{i + 1};
    s.insert(id, w);
    active.emplace(id, w);
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(EdgeCases, NaiveHandlesSingleSlotTimelineChurn) {
  NaiveScheduler s;
  for (int round = 0; round < 100; ++round) {
    s.insert(JobId{1}, Window{0, 1});
    s.erase(JobId{1});
  }
  EXPECT_EQ(s.active_jobs(), 0u);
}

}  // namespace
}  // namespace reasched
