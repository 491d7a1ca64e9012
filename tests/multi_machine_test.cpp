// The §3 reduction's sequential path (ShardedScheduler::insert/erase, one
// shard): round-robin delegation, extras on the earliest machines, at most
// one migration per delete, and a clean ledger after a rejected insert.
#include <gtest/gtest.h>

#include <memory>

#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "schedule/validator.hpp"
#include "service/sharded_scheduler.hpp"

namespace reasched {
namespace {

ShardedScheduler::Factory naive_factory() {
  return [] { return std::make_unique<NaiveScheduler>(); };
}

TEST(MultiMachine, RoundRobinDelegation) {
  ShardedScheduler s(4, naive_factory());
  for (unsigned i = 0; i < 8; ++i) s.insert(JobId{i + 1}, Window{0, 32});
  const auto snap = s.snapshot();
  std::vector<unsigned> per_machine(4, 0);
  for (const auto& [id, placement] : snap.assignments()) {
    ++per_machine[placement.machine];
  }
  for (const auto count : per_machine) EXPECT_EQ(count, 2u);
  s.audit_balance();
}

TEST(MultiMachine, ExtrasOnEarliestMachines) {
  ShardedScheduler s(4, naive_factory());
  for (unsigned i = 0; i < 6; ++i) s.insert(JobId{i + 1}, Window{0, 32});
  const auto snap = s.snapshot();
  std::vector<unsigned> per_machine(4, 0);
  for (const auto& [id, placement] : snap.assignments()) ++per_machine[placement.machine];
  EXPECT_EQ(per_machine[0], 2u);
  EXPECT_EQ(per_machine[1], 2u);
  EXPECT_EQ(per_machine[2], 1u);
  EXPECT_EQ(per_machine[3], 1u);
  s.audit_balance();
}

TEST(MultiMachine, DeleteCausesAtMostOneMigration) {
  ShardedScheduler s(4, naive_factory());
  for (unsigned i = 0; i < 16; ++i) s.insert(JobId{i + 1}, Window{0, 32});
  for (unsigned i = 0; i < 16; ++i) {
    const auto stats = s.erase(JobId{i + 1});
    EXPECT_LE(stats.migrations, 1u);
    s.audit_balance();
  }
}

TEST(MultiMachine, InsertNeverMigrates) {
  ShardedScheduler s(3, naive_factory());
  for (unsigned i = 0; i < 30; ++i) {
    const auto stats = s.insert(JobId{i + 1}, Window{0, 64});
    EXPECT_EQ(stats.migrations, 0u);
  }
}

TEST(MultiMachine, BalanceHoldsUnderChurnAcrossWindows) {
  ShardedScheduler s(2, naive_factory());
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  const std::vector<Window> windows = {{0, 32}, {32, 64}, {0, 64}, {64, 96}};
  for (int round = 0; round < 6; ++round) {
    for (const auto& w : windows) {
      for (int i = 0; i < 3; ++i) {
        const JobId id{next++};
        s.insert(id, w);
        active.emplace(id, w);
      }
    }
    // Delete a third of everything.
    std::vector<JobId> victims;
    std::size_t count = 0;
    for (const auto& [id, w] : active) {
      if (++count % 3 == 0) victims.push_back(id);
    }
    for (const JobId id : victims) {
      const auto stats = s.erase(id);
      EXPECT_LE(stats.migrations, 1u);
      active.erase(id);
    }
    s.audit_balance();
    EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  }
}

TEST(MultiMachine, SingleMachineDegeneratesGracefully) {
  ShardedScheduler s(1, naive_factory());
  for (unsigned i = 0; i < 8; ++i) {
    const auto stats = s.insert(JobId{i + 1}, Window{0, 16});
    EXPECT_EQ(stats.migrations, 0u);
  }
  for (unsigned i = 0; i < 8; ++i) {
    const auto stats = s.erase(JobId{i + 1});
    EXPECT_EQ(stats.migrations, 0u);  // nowhere to migrate to
  }
}

TEST(MultiMachine, FailedInsertLeavesLedgerClean) {
  ShardedScheduler s(2, naive_factory());
  // Window [0,1): one slot per machine → jobs 1 and 2 fit, 3 cannot.
  s.insert(JobId{1}, Window{0, 1});
  s.insert(JobId{2}, Window{0, 1});
  EXPECT_THROW(s.insert(JobId{3}, Window{0, 1}), InfeasibleError);
  EXPECT_EQ(s.active_jobs(), 2u);
  s.audit_balance();
  // Deleting still works and migrates at most once.
  const auto stats = s.erase(JobId{1});
  EXPECT_LE(stats.migrations, 1u);
}

TEST(MultiMachine, WorksWithReservationScheduler) {
  SchedulerOptions options;
  options.audit_policy.mode = audit::Mode::kFull;
  ShardedScheduler s(
      2, [&] { return std::make_unique<ReservationScheduler>(options); });
  std::unordered_map<JobId, Window> active;
  for (unsigned i = 0; i < 24; ++i) {
    const JobId id{i + 1};
    s.insert(id, Window{0, 256});
    active.emplace(id, Window{0, 256});
  }
  for (unsigned i = 0; i < 12; ++i) {
    const auto stats = s.erase(JobId{i + 1});
    EXPECT_LE(stats.migrations, 1u);
    active.erase(JobId{i + 1});
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  s.audit_balance();
}

}  // namespace
}  // namespace reasched
