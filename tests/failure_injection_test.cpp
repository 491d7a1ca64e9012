// Failure-path behavior: rejected inserts must leave observable state
// untouched (strong guarantee for the request), best-effort mode must stay
// feasible under deliberate overload, and accounting must stay consistent
// throughout.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/greedy_repair_scheduler.hpp"
#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "schedule/validator.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

/// Snapshot equality: same jobs on the same slots.
bool snapshots_equal(const Schedule& a, const Schedule& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [job, placement] : a.assignments()) {
    const auto other = b.find(job);
    if (!other.has_value() || *other != placement) return false;
  }
  return true;
}

template <typename Scheduler>
void expect_strong_rollback(Scheduler& scheduler, Window impossible) {
  const Schedule before = scheduler.snapshot();
  const std::size_t active = scheduler.active_jobs();
  EXPECT_THROW(scheduler.insert(JobId{999'999}, impossible), InfeasibleError);
  EXPECT_EQ(scheduler.active_jobs(), active);
  EXPECT_TRUE(snapshots_equal(before, scheduler.snapshot()))
      << "failed insert mutated the schedule";
}

TEST(FailureInjection, NaiveStrongRollback) {
  NaiveScheduler s;
  // Saturate [0, 8) with span-8 jobs, put longer jobs around them so the
  // cascade machinery engages before dead-ending.
  for (unsigned i = 0; i < 8; ++i) s.insert(JobId{i + 1}, Window{0, 8});
  expect_strong_rollback(s, Window{0, 8});
  // Still usable afterwards.
  EXPECT_NO_THROW(s.insert(JobId{50}, Window{8, 16}));
}

TEST(FailureInjection, NaiveRollbackAfterPartialCascade) {
  NaiveScheduler s;
  // [0,2) holds a span-4 job (displaceable); [0,4) otherwise full of
  // span-4 jobs: inserting a span-2 job displaces one span-4 job, whose
  // reinsertion dead-ends; everything must unwind.
  s.insert(JobId{1}, Window{0, 4});
  s.insert(JobId{2}, Window{0, 4});
  s.insert(JobId{3}, Window{0, 4});
  s.insert(JobId{4}, Window{0, 4});
  const Schedule before = s.snapshot();
  // span-2 insert: both [0,2) slots hold span-4 jobs; displacing either
  // leaves no room for its reinsertion ([0,4) is full) nor a longer victim.
  EXPECT_THROW(s.insert(JobId{5}, Window{0, 2}), InfeasibleError);
  EXPECT_TRUE(snapshots_equal(before, s.snapshot()));
  std::unordered_map<JobId, Window> active;
  for (unsigned i = 1; i <= 4; ++i) active.emplace(JobId{i}, Window{0, 4});
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(FailureInjection, GreedyRepairRollbackAfterPartialCascade) {
  GreedyRepairScheduler s;
  // Same construction with deadlines: all occupants share deadline 4, so no
  // strictly-later victim exists past the first displacement.
  s.insert(JobId{1}, Window{0, 4});
  s.insert(JobId{2}, Window{0, 4});
  s.insert(JobId{3}, Window{0, 4});
  s.insert(JobId{4}, Window{0, 4});
  const Schedule before = s.snapshot();
  EXPECT_THROW(s.insert(JobId{5}, Window{0, 4}), InfeasibleError);
  EXPECT_TRUE(snapshots_equal(before, s.snapshot()));
}

TEST(FailureInjection, ReservationRejectedInsertKeepsFeasibility) {
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kThrow;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  for (unsigned i = 0; i < 8; ++i) {
    s.insert(JobId{i + 1}, Window{0, 8});
    active.emplace(JobId{i + 1}, Window{0, 8});
  }
  // A ninth span-8 job genuinely cannot fit.
  EXPECT_THROW(s.insert(JobId{100}, Window{0, 8}), InfeasibleError);
  EXPECT_EQ(s.active_jobs(), 8u);
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  // The ledger rolled back: the same id is insertable elsewhere.
  EXPECT_NO_THROW(s.insert(JobId{100}, Window{8, 16}));
}

TEST(FailureInjection, ReservationThrowOnSqueezedWindow) {
  // kThrow + a longer window squeezed out of reservations AND out of
  // physical space: insert must throw, state stays feasible.
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kThrow;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  auto add = [&](Window w) {
    const JobId id{next++};
    s.insert(id, w);
    active.emplace(id, w);
  };
  for (int i = 0; i < 32; ++i) add(Window{0, 64});
  for (int i = 0; i < 32; ++i) add(Window{64, 128});
  // [0, 128) is now physically full; one more job cannot exist.
  EXPECT_THROW(s.insert(JobId{999}, Window{0, 128}), InfeasibleError);
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(FailureInjection, BestEffortSurvivesSustainedOverload) {
  // Drive a region far beyond the reservation budget (but within physical
  // capacity) with continuous churn; feasibility must never break and
  // parked bookkeeping must stay exact.
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kBestEffort;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);
  Rng rng(21);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  const std::vector<Window> windows = {{0, 64}, {64, 128}, {0, 128}, {0, 256}};
  for (int step = 0; step < 1200; ++step) {
    if (!active.empty() && rng.chance(0.4)) {
      const auto victim = std::next(
          active.begin(), static_cast<long>(rng.uniform(0, active.size() - 1)));
      s.erase(victim->first);
      active.erase(victim);
    } else {
      const Window w = windows[static_cast<std::size_t>(rng.uniform(0, 3))];
      const JobId id{next++};
      try {
        s.insert(id, w);
        active.emplace(id, w);
      } catch (const InfeasibleError&) {
        // Physically full; acceptable under deliberate overload.
      }
    }
    if (step % 100 == 0) {
      EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok()) << "step " << step;
    }
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

// ---------------------------------------------------------------------------
// Corrupted-state detection (ISSUE 4 satellite): deliberately corrupt
// internal state through the test hook — which marks the touched region
// dirty, exactly as a buggy mutation path would — and assert that BOTH the
// full O(state) sweep and the incremental audit engine flag it. A stale
// dirty set must never produce a false accept.
// ---------------------------------------------------------------------------

using Corruption = ReservationScheduler::Corruption;

std::unique_ptr<ReservationScheduler> corrupted_target(Corruption kind) {
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kBestEffort;
  audit::AuditPolicy policy;
  policy.mode = audit::Mode::kIncremental;
  policy.cadence = 0;  // audits driven explicitly
  options.audit_policy = policy;
  auto scheduler = std::make_unique<ReservationScheduler>(options);
  for (std::uint64_t i = 1; i <= 24; ++i) {
    scheduler->insert(JobId{i}, Window{0, 256});
  }
  scheduler->incremental_audit();  // verify + seed the clean baseline
  EXPECT_TRUE(scheduler->corrupt_for_test(kind));
  return scheduler;
}

TEST(FailureInjection, FlippedOccupancyBitIsFlaggedByBothAuditors) {
  auto a = corrupted_target(Corruption::kFlipLowerOccupied);
  EXPECT_THROW(a->audit(), InternalError);
  auto b = corrupted_target(Corruption::kFlipLowerOccupied);
  EXPECT_THROW(b->incremental_audit(), InternalError);
}

TEST(FailureInjection, DesyncedLowerCountIsFlaggedByBothAuditors) {
  auto a = corrupted_target(Corruption::kDesyncLowerCount);
  EXPECT_THROW(a->audit(), InternalError);
  auto b = corrupted_target(Corruption::kDesyncLowerCount);
  EXPECT_THROW(b->incremental_audit(), InternalError);
}

TEST(FailureInjection, OrphanedLedgerSlotIsFlaggedByBothAuditors) {
  auto a = corrupted_target(Corruption::kOrphanLedgerSlot);
  EXPECT_THROW(a->audit(), InternalError);
  auto b = corrupted_target(Corruption::kOrphanLedgerSlot);
  EXPECT_THROW(b->incremental_audit(), InternalError);
}

TEST(FailureInjection, DesyncedWindowJobsIsFlaggedByBothAuditors) {
  auto a = corrupted_target(Corruption::kDesyncWindowJobs);
  EXPECT_THROW(a->audit(), InternalError);
  auto b = corrupted_target(Corruption::kDesyncWindowJobs);
  EXPECT_THROW(b->incremental_audit(), InternalError);
}

TEST(FailureInjection, DesyncedParkedCountIsFlaggedByBothAuditors) {
  auto a = corrupted_target(Corruption::kDesyncParkedCount);
  EXPECT_THROW(a->audit(), InternalError);
  auto b = corrupted_target(Corruption::kDesyncParkedCount);
  EXPECT_THROW(b->incremental_audit(), InternalError);
}

TEST(FailureInjection, CorruptionRemainsFlaggedAfterFirstRejection) {
  // A failed check must not consume its dirty mark: a caller that catches
  // the first rejection and audits again must be rejected again (the drain
  // re-marks on throw), and the full sweep must agree throughout.
  auto scheduler = corrupted_target(Corruption::kFlipLowerOccupied);
  EXPECT_THROW(scheduler->incremental_audit(), InternalError);
  EXPECT_THROW(scheduler->incremental_audit(), InternalError);
  EXPECT_THROW(scheduler->audit(), InternalError);
}

TEST(FailureInjection, CorruptionSurvivesInterveningCleanRequests) {
  // The dirty mark must not be washed out by later unrelated mutations:
  // corrupt, serve clean requests elsewhere, then audit incrementally.
  auto scheduler = corrupted_target(Corruption::kDesyncLowerCount);
  for (std::uint64_t i = 100; i < 110; ++i) {
    scheduler->insert(JobId{i}, Window{1024, 1024 + 256});
  }
  EXPECT_THROW(scheduler->incremental_audit(), InternalError);
}

TEST(FailureInjection, ThrowAndBestEffortAgreeWhenFeasible) {
  // On an instance with ample slack the two overflow policies must behave
  // identically (no degradation ever happens).
  for (const auto policy : {OverflowPolicy::kThrow, OverflowPolicy::kBestEffort}) {
    SchedulerOptions options;
    options.overflow = policy;
    options.audit_policy.mode = audit::Mode::kFull;
    ReservationScheduler s(options);
    std::uint64_t degraded = 0;
    for (unsigned i = 0; i < 64; ++i) {
      degraded += s.insert(JobId{i + 1}, Window{0, 4096}).degraded;
    }
    EXPECT_EQ(degraded, 0u);
    EXPECT_EQ(s.parked_jobs(), 0u);
  }
}

}  // namespace
}  // namespace reasched
