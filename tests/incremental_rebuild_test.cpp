// §4 deamortization: the even/odd incremental rebuild adapter.
#include <gtest/gtest.h>

#include "core/incremental_rebuild.hpp"
#include "schedule/validator.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

SchedulerOptions audited() {
  SchedulerOptions options;
  options.audit_policy.mode = audit::Mode::kFull;
  return options;
}

TEST(IncrementalRebuild, BasicInsertErase) {
  IncrementalRebuildScheduler s(audited());
  const auto stats = s.insert(JobId{1}, Window{0, 64});
  EXPECT_EQ(stats.reallocations, 0u);
  const auto p = s.snapshot().find(JobId{1});
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(Window(0, 64).contains(p->slot));
  s.erase(JobId{1});
  EXPECT_EQ(s.active_jobs(), 0u);
}

TEST(IncrementalRebuild, RejectsSpanOneAndUnaligned) {
  IncrementalRebuildScheduler s;
  EXPECT_THROW(s.insert(JobId{1}, Window{5, 6}), ContractViolation);
  EXPECT_THROW(s.insert(JobId{1}, Window{1, 9}), ContractViolation);
}

TEST(IncrementalRebuild, GenerationsKeepParity) {
  IncrementalRebuildScheduler s(audited());
  // Stay below n* = 8 so no migration starts: a single generation, a single
  // parity.
  for (unsigned i = 0; i < 5; ++i) s.insert(JobId{i + 1}, Window{0, 256});
  ASSERT_FALSE(s.migrating());
  std::set<Time> parities;
  const Schedule snap = s.snapshot();
  for (const auto& [id, placement] : snap.assignments()) {
    parities.insert(placement.slot & 1);
  }
  EXPECT_EQ(parities.size(), 1u);
}

TEST(IncrementalRebuild, MidMigrationUsesBothParities) {
  IncrementalRebuildScheduler s(audited());
  for (unsigned i = 0; i < 9; ++i) s.insert(JobId{i + 1}, Window{0, 256});
  // The 9th insert crossed n* = 8: old and new generations coexist on
  // opposite parities (the audit() inside every request already checks the
  // parity-generation correspondence).
  ASSERT_TRUE(s.migrating());
  std::set<Time> parities;
  const Schedule snap = s.snapshot();
  for (const auto& [id, placement] : snap.assignments()) {
    parities.insert(placement.slot & 1);
  }
  EXPECT_EQ(parities.size(), 2u);
}

TEST(IncrementalRebuild, MigrationSpreadsOverRequests) {
  SchedulerOptions options = audited();
  IncrementalRebuildScheduler s(options);
  // Push past n* = 8: a migration starts; it must NOT complete immediately.
  for (unsigned i = 0; i < 9; ++i) s.insert(JobId{i + 1}, Window{0, 1024});
  EXPECT_TRUE(s.migrating());
  const auto pending_before = s.pending_migrations();
  EXPECT_GT(pending_before, 0u);
  // Each further request retires up to two pending migrations.
  s.insert(JobId{100}, Window{0, 1024});
  EXPECT_LE(s.pending_migrations() + 2, pending_before + 1);
}

TEST(IncrementalRebuild, PerRequestCostStaysBounded) {
  // The whole point: across n* doublings no single request moves Θ(n) jobs.
  IncrementalRebuildScheduler s(audited());
  std::uint64_t worst = 0;
  for (unsigned i = 0; i < 300; ++i) {
    const auto stats = s.insert(JobId{i + 1}, Window{0, 4096});
    worst = std::max(worst, stats.reallocations);
  }
  // Two migrations per request, each O(1) expected moves plus its own
  // reallocation: far below n = 300.
  EXPECT_LE(worst, 12u);
}

TEST(IncrementalRebuild, AmortizedMatchesValidator) {
  IncrementalRebuildScheduler s(audited());
  Rng rng(9);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  for (int step = 0; step < 1500; ++step) {
    if (!active.empty() && rng.chance(0.45)) {
      const auto victim = std::next(
          active.begin(), static_cast<long>(rng.uniform(0, active.size() - 1)));
      s.erase(victim->first);
      active.erase(victim);
    } else {
      const unsigned exp = static_cast<unsigned>(rng.uniform(3, 12));
      const Time span = static_cast<Time>(u64{1} << exp);
      const Time start = static_cast<Time>(
          span * static_cast<Time>(rng.uniform(0, (u64{1} << (14 - std::min(14u, exp))))));
      const JobId id{next++};
      const Window w{start, start + span};
      s.insert(id, w);
      active.emplace(id, w);
    }
    if (step % 50 == 0) {
      EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok()) << "step " << step;
    }
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(IncrementalRebuild, ShrinkTriggersDownwardMigration) {
  IncrementalRebuildScheduler s(audited());
  for (unsigned i = 0; i < 200; ++i) s.insert(JobId{i + 1}, Window{0, 8192});
  const auto grown = s.n_star();
  EXPECT_GE(grown, 200u);
  for (unsigned i = 0; i < 195; ++i) s.erase(JobId{i + 1});
  EXPECT_LT(s.n_star(), grown);
  // The survivors are still valid.
  std::unordered_map<JobId, Window> active;
  for (unsigned i = 195; i < 200; ++i) active.emplace(JobId{i + 1}, Window{0, 8192});
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(IncrementalRebuild, TrimmedPlacementsStayInOriginalWindows) {
  IncrementalRebuildScheduler s(audited());
  const Time huge = static_cast<Time>(u64{1} << 30);
  for (unsigned i = 0; i < 50; ++i) s.insert(JobId{i + 1}, Window{0, huge});
  const auto snap = s.snapshot();
  for (unsigned i = 0; i < 50; ++i) {
    const auto p = snap.find(JobId{i + 1});
    ASSERT_TRUE(p.has_value());
    EXPECT_GE(p->slot, 0);
    EXPECT_LT(p->slot, huge);
  }
}

TEST(IncrementalRebuild, DuplicateIdRejected) {
  IncrementalRebuildScheduler s;
  s.insert(JobId{1}, Window{0, 16});
  EXPECT_THROW(s.insert(JobId{1}, Window{0, 16}), ContractViolation);
  EXPECT_THROW(s.erase(JobId{404}), ContractViolation);
}

}  // namespace
}  // namespace reasched
