#include <gtest/gtest.h>

#include <string>

#include "core/reservation_scheduler.hpp"
#include "schedule/validator.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

SchedulerOptions audited() {
  SchedulerOptions options;
  options.audit_policy.mode = audit::Mode::kFull;
  return options;
}

TEST(ReservationScheduler, SingleLevel0Job) {
  ReservationScheduler s(audited());
  const auto stats = s.insert(JobId{1}, Window{0, 8});
  EXPECT_EQ(stats.reallocations, 0u);
  const auto p = s.snapshot().find(JobId{1});
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(Window(0, 8).contains(p->slot));
}

TEST(ReservationScheduler, SingleLevel1Job) {
  ReservationScheduler s(audited());
  const auto stats = s.insert(JobId{1}, Window{0, 64});
  EXPECT_EQ(stats.reallocations, 0u);
  const auto p = s.snapshot().find(JobId{1});
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(Window(0, 64).contains(p->slot));
}

TEST(ReservationScheduler, SingleLevel2Job) {
  ReservationScheduler s(audited());
  const auto stats = s.insert(JobId{1}, Window{0, 1024});
  EXPECT_EQ(stats.reallocations, 0u);
  ASSERT_TRUE(s.snapshot().find(JobId{1}).has_value());
}

TEST(ReservationScheduler, RequiresAlignedWindows) {
  ReservationScheduler s;
  EXPECT_THROW(s.insert(JobId{1}, Window{1, 9}), ContractViolation);
  EXPECT_THROW(s.insert(JobId{1}, Window{0, 6}), ContractViolation);
}

TEST(ReservationScheduler, RejectsDuplicateIds) {
  ReservationScheduler s;
  s.insert(JobId{1}, Window{0, 8});
  EXPECT_THROW(s.insert(JobId{1}, Window{0, 8}), ContractViolation);
}

TEST(ReservationScheduler, EraseRejectsUnknown) {
  ReservationScheduler s;
  EXPECT_THROW(s.erase(JobId{5}), ContractViolation);
}

TEST(ReservationScheduler, InsertEraseRoundTrip) {
  ReservationScheduler s(audited());
  for (unsigned i = 0; i < 16; ++i) s.insert(JobId{i + 1}, Window{0, 256});
  EXPECT_EQ(s.active_jobs(), 16u);
  for (unsigned i = 0; i < 16; ++i) s.erase(JobId{i + 1});
  EXPECT_EQ(s.active_jobs(), 0u);
}

TEST(ReservationScheduler, ManyJobsSameWindowStayFeasible) {
  SchedulerOptions options = audited();
  options.trimming = false;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  // Window [0, 512): level 2. The 8-underallocation budget allows
  // 512/8 = 64 jobs; insert 48 to stay within it comfortably.
  for (unsigned i = 0; i < 48; ++i) {
    const JobId id{i + 1};
    s.insert(id, Window{0, 512});
    active.emplace(id, Window{0, 512});
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  EXPECT_EQ(s.parked_jobs(), 0u);
}

TEST(ReservationScheduler, MixedLevelsNested) {
  SchedulerOptions options = audited();
  options.trimming = false;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  auto add = [&](Window w) {
    const JobId id{next++};
    s.insert(id, w);
    active.emplace(id, w);
  };
  // A level-2 window with level-1 and level-0 jobs nested inside it.
  for (int i = 0; i < 8; ++i) add(Window{0, 4096});
  for (int i = 0; i < 4; ++i) add(Window{0, 64});
  for (int i = 0; i < 2; ++i) add(Window{0, 16});
  for (int i = 0; i < 2; ++i) add(Window{32, 40});
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  EXPECT_EQ(s.parked_jobs(), 0u);
}

TEST(ReservationScheduler, ShortJobsEvictLongJobsFromTheirRange) {
  SchedulerOptions options = audited();
  options.trimming = false;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  // Fill [0, 64) level-1 window with 6 jobs, then saturate [0, 8) with 8
  // level-0 jobs: every level-1 job in [0, 8) must be displaced.
  for (unsigned i = 0; i < 6; ++i) {
    s.insert(JobId{i + 1}, Window{0, 64});
    active.emplace(JobId{i + 1}, Window{0, 64});
  }
  for (unsigned i = 0; i < 8; ++i) {
    const JobId id{100 + i};
    s.insert(id, Window{0, 8});
    active.emplace(id, Window{0, 8});
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(ReservationScheduler, DeletionTriggersAtMostConstantMoves) {
  SchedulerOptions options = audited();
  options.trimming = false;
  ReservationScheduler s(options);
  for (unsigned i = 0; i < 24; ++i) s.insert(JobId{i + 1}, Window{0, 1024});
  for (unsigned i = 0; i < 24; ++i) {
    const auto stats = s.erase(JobId{i + 1});
    // Deleting removes two reservations → at most two MOVEs, each of which
    // can relocate one same-level job plus one higher-level job.
    EXPECT_LE(stats.reallocations, 4u) << "delete " << i;
  }
}

TEST(ReservationScheduler, TrimmingKeepsWindowsNearN) {
  SchedulerOptions options = audited();
  options.trimming = true;
  options.gamma = 8;
  ReservationScheduler s(options);
  // Huge windows, few jobs: with trimming the effective span is 2γn*.
  for (unsigned i = 0; i < 20; ++i) {
    s.insert(JobId{i + 1}, Window{0, static_cast<Time>(u64{1} << 40)});
  }
  EXPECT_EQ(s.active_jobs(), 20u);
  // n* tracks the population: 20 jobs → n* = 32.
  EXPECT_EQ(s.n_star(), 32u);
  const auto snap = s.snapshot();
  for (unsigned i = 0; i < 20; ++i) {
    const auto p = snap.find(JobId{i + 1});
    ASSERT_TRUE(p.has_value());
    // All jobs live inside some trimmed block of span 2*8*32 = 512.
    EXPECT_LT(p->slot, static_cast<Time>(u64{1} << 40));
  }
}

TEST(ReservationScheduler, NStarShrinksOnDeletions) {
  SchedulerOptions options;  // audit off: rebuilds make it slow
  options.trimming = true;
  ReservationScheduler s(options);
  for (unsigned i = 0; i < 100; ++i) s.insert(JobId{i + 1}, Window{0, 4096});
  const auto grown = s.n_star();
  EXPECT_GE(grown, 100u);
  for (unsigned i = 0; i < 95; ++i) s.erase(JobId{i + 1});
  EXPECT_LT(s.n_star(), grown);
  EXPECT_EQ(s.active_jobs(), 5u);
}

TEST(ReservationScheduler, OverflowThrowsWhenRequested) {
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kThrow;
  ReservationScheduler s(options);
  // Saturate a span-1 window: the second job genuinely cannot fit.
  s.insert(JobId{1}, Window{0, 1});
  EXPECT_THROW(s.insert(JobId{2}, Window{0, 1}), InfeasibleError);
  EXPECT_EQ(s.active_jobs(), 1u);
}

TEST(ReservationScheduler, ShortestWindowNeverParks) {
  // The shortest window at a level is first in fulfillment priority, so its
  // fulfilled count equals the whole allowance: it can absorb jobs up to
  // physical capacity without ever degrading.
  SchedulerOptions options = audited();
  options.trimming = false;
  options.overflow = OverflowPolicy::kBestEffort;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  for (unsigned i = 0; i < 40; ++i) {
    const JobId id{i + 1};
    ASSERT_NO_THROW(s.insert(id, Window{0, 64})) << i;
    active.emplace(id, Window{0, 64});
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  EXPECT_EQ(s.parked_jobs(), 0u);
}

TEST(ReservationScheduler, BestEffortParksSqueezedLongerWindow) {
  // A longer window squeezed by shorter same-level windows loses its
  // fulfilled reservations (the waitlist); once its fulfilled count is
  // exhausted, additional jobs must be parked — but stay feasible.
  SchedulerOptions options = audited();
  options.trimming = false;
  options.overflow = OverflowPolicy::kBestEffort;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  auto add = [&](Window w) {
    const JobId id{next++};
    ASSERT_NO_THROW(s.insert(id, w)) << w << " #" << id.value;
    active.emplace(id, w);
  };
  // Shorter level-1 windows hog the allowance of all four intervals...
  for (int i = 0; i < 30; ++i) add(Window{0, 64});
  for (int i = 0; i < 30; ++i) add(Window{64, 128});
  // ...so the longer [0, 128) window gets at most ~1 fulfilled reservation
  // per interval; the jobs beyond that must park (physically there is
  // plenty of room: 128 slots, 68 jobs).
  for (int i = 0; i < 8; ++i) add(Window{0, 128});
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  EXPECT_GT(s.parked_jobs(), 0u);
  // Parked jobs clean up like any other.
  while (next > 1) s.erase(JobId{--next});
  EXPECT_EQ(s.active_jobs(), 0u);
  EXPECT_EQ(s.parked_jobs(), 0u);
}

TEST(ReservationScheduler, FailedInsertRollsBackState) {
  SchedulerOptions options = audited();
  options.trimming = false;
  ReservationScheduler s(options);
  s.insert(JobId{1}, Window{4, 5});
  EXPECT_THROW(s.insert(JobId{2}, Window{4, 5}), InfeasibleError);
  EXPECT_EQ(s.active_jobs(), 1u);
  // Scheduler remains usable after the rejection.
  EXPECT_NO_THROW(s.insert(JobId{3}, Window{0, 64}));
  EXPECT_NO_THROW(s.erase(JobId{3}));
}

TEST(ReservationScheduler, SnapshotMatchesActiveSet) {
  ReservationScheduler s(audited());
  s.insert(JobId{1}, Window{0, 64});
  s.insert(JobId{2}, Window{64, 128});
  const auto snap = s.snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap.find(JobId{1}).has_value());
  EXPECT_TRUE(snap.find(JobId{2}).has_value());
}

TEST(ReservationScheduler, CostBoundedOnUnderallocatedChurn) {
  SchedulerOptions options;
  options.trimming = false;  // isolate the reservation machinery
  ReservationScheduler s(options);
  Rng rng(5);
  std::vector<std::pair<JobId, Time>> active;  // (job, window start)
  std::uint64_t next = 1;
  std::uint64_t worst = 0;
  // Windows of span 64 at 8 distinct positions; cap each window's
  // population at 64/8 = 8 jobs so the instance stays 8-underallocated.
  std::unordered_map<Time, unsigned> load;
  for (int step = 0; step < 4000; ++step) {
    if (!active.empty() && rng.chance(0.5)) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform(0, active.size() - 1));
      const auto [id, start] = active[pick];
      const auto stats = s.erase(id);
      worst = std::max(worst, stats.reallocations);
      --load[start];
      active[pick] = active.back();
      active.pop_back();
    } else {
      const Time start = static_cast<Time>(64 * rng.uniform(0, 7));
      auto& count = load[start];
      if (count >= 8) continue;
      const JobId id{next++};
      const auto stats = s.insert(id, Window{start, start + 64});
      worst = std::max(worst, stats.reallocations);
      active.emplace_back(id, start);
      ++count;
    }
  }
  EXPECT_EQ(s.parked_jobs(), 0u);
  // O(log* Δ) with Δ=64 is a small constant; allow generous headroom.
  EXPECT_LE(worst, 8u);
}

TEST(ReservationScheduler, GammaMustBePowerOfTwo) {
  SchedulerOptions options;
  options.gamma = 6;
  EXPECT_THROW(ReservationScheduler{options}, ContractViolation);
}

TEST(ReservationScheduler, SpanBeyondTableRejected) {
  // A custom tower whose top span is 1024: an aligned span-2048 window is
  // refused for its span, not for anything else.
  SchedulerOptions options;
  options.levels = LevelTable::custom({32, 256, 1024});
  ReservationScheduler s(options);
  try {
    s.insert(JobId{1}, Window{0, 2048});
    ADD_FAILURE() << "span 2048 accepted by a table that ends at 1024";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("span exceeds the level table limit"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(s.active_jobs(), 0u);
  // The paper table's limit is 2^62, and a window of exactly that span is
  // within it.
  EXPECT_NO_THROW(ReservationScheduler{}.check_window(Window{0, Time{1} << 62}));
}

TEST(ReservationScheduler, PaperLevelIntervalBlocksUseOneByteSlotCells) {
  // One block per interval: a one-byte cell per slot, then an 8-byte
  // fulfillment row and a 4-byte counter per span class, rounded up to the
  // arena alignment. L1: 32 + 3 * 12 = 68 -> 80 B. L2: 256 + 54 * 12 =
  // 904 -> 912 B.
  SchedulerOptions options = audited();
  options.trimming = false;  // keep the span-1024 job at level 2
  ReservationScheduler s(options);
  EXPECT_EQ(s.arena_stats(1).block_bytes, 80u);
  EXPECT_LE(s.arena_stats(2).block_bytes, 1024u);
  // Both levels still carve and audit cleanly at these sizes.
  s.insert(JobId{1}, Window{0, 64});
  s.insert(JobId{2}, Window{0, 1024});
  EXPECT_GE(s.arena_stats(1).blocks_carved, 1u);
  EXPECT_GE(s.arena_stats(2).blocks_carved, 1u);
}

}  // namespace
}  // namespace reasched
