// Unit coverage for the incremental audit subsystem (src/audit/): the
// dirty-set primitives, the invariant-check registry, and the engine wired
// into the schedulers (clean workloads stay clean, budgeted slices drain,
// mid-stream attach escalates then seeds, migrations carry the tracking
// across the generation flip).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/dirty_set.hpp"
#include "audit/invariant_check.hpp"
#include "baseline/rigid_block_sim.hpp"
#include "core/incremental_rebuild.hpp"
#include "core/reservation_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

audit::AuditPolicy incremental_policy(std::uint64_t cadence = 1,
                                      std::size_t budget = 0,
                                      bool differential = false) {
  audit::AuditPolicy policy;
  policy.mode = audit::Mode::kIncremental;
  policy.cadence = cadence;
  policy.budget = budget;
  policy.differential = differential;
  return policy;
}

// ---------------------------------------------------------------- dirty sets

TEST(PagedDirtySet, MarkDedupeDrain) {
  audit::PagedDirtySet set;
  EXPECT_TRUE(set.mark(3));
  EXPECT_FALSE(set.mark(3));  // dedupe
  EXPECT_TRUE(set.mark(70));  // second page
  EXPECT_TRUE(set.mark(0));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(70));
  EXPECT_FALSE(set.contains(71));

  std::vector<Time> drained;
  EXPECT_EQ(set.drain(0, [&](Time key) { drained.push_back(key); }), 3u);
  EXPECT_TRUE(set.empty());
  ASSERT_EQ(drained.size(), 3u);
  // First-dirtied page first; within a page, ascending bit order.
  EXPECT_EQ(drained[0], 0);
  EXPECT_EQ(drained[1], 3);
  EXPECT_EQ(drained[2], 70);
}

TEST(PagedDirtySet, BudgetedDrainKeepsRemainder) {
  audit::PagedDirtySet set;
  for (Time key = 0; key < 10; ++key) set.mark(key * 64);  // 10 pages
  std::vector<Time> drained;
  EXPECT_EQ(set.drain(4, [&](Time key) { drained.push_back(key); }), 4u);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_EQ(set.drain(0, [&](Time key) { drained.push_back(key); }), 6u);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(drained.size(), 10u);
  // Re-marking after a full drain works (page queue reset).
  EXPECT_TRUE(set.mark(64));
  EXPECT_EQ(set.size(), 1u);
}

TEST(PagedDirtySet, BudgetSplitsWithinOnePage) {
  audit::PagedDirtySet set;
  for (Time key = 0; key < 8; ++key) set.mark(key);  // one page, 8 bits
  std::size_t seen = 0;
  EXPECT_EQ(set.drain(3, [&](Time) { ++seen; }), 3u);
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(set.drain(0, [&](Time) { ++seen; }), 5u);
  EXPECT_EQ(seen, 8u);
}

TEST(PagedDirtySet, NegativeKeys) {
  audit::PagedDirtySet set;
  EXPECT_TRUE(set.mark(-1));
  EXPECT_TRUE(set.mark(-64));
  EXPECT_TRUE(set.contains(-1));
  std::size_t seen = 0;
  set.drain(0, [&](Time) { ++seen; });
  EXPECT_EQ(seen, 2u);
}

TEST(DirtyQueue, DedupeUnmarkBudgetFifo) {
  audit::DirtyQueue<JobId> queue;
  EXPECT_TRUE(queue.mark(JobId{1}));
  EXPECT_FALSE(queue.mark(JobId{1}));
  EXPECT_TRUE(queue.mark(JobId{2}));
  EXPECT_TRUE(queue.mark(JobId{3}));
  queue.unmark(JobId{2});  // retracted: drain must skip it
  EXPECT_EQ(queue.size(), 2u);

  std::vector<std::uint64_t> drained;
  EXPECT_EQ(queue.drain(1, [&](JobId id) { drained.push_back(id.value); }), 1u);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], 1u);  // FIFO: oldest dirt first
  EXPECT_EQ(queue.drain(0, [&](JobId id) { drained.push_back(id.value); }), 1u);
  EXPECT_EQ(drained.back(), 3u);
  EXPECT_TRUE(queue.empty());
  // Marks after a drain start a fresh queue.
  EXPECT_TRUE(queue.mark(JobId{2}));
  EXPECT_EQ(queue.size(), 1u);
}

// ------------------------------------------------------------------ registry

TEST(InvariantTable, RegisterFindRunAll) {
  audit::InvariantTable table;
  std::vector<std::string> ran;
  table.add("t.first", "Test", "first", [&] { ran.push_back("first"); });
  table.add("t.second", "Test", "second", [&] { ran.push_back("second"); });
  ASSERT_EQ(table.size(), 2u);
  EXPECT_NE(table.find("t.first"), nullptr);
  EXPECT_EQ(table.find("t.missing"), nullptr);

  table.run("t.second");
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], "second");

  ran.clear();
  table.run_all();
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(ran[0], "first");  // registration order

  EXPECT_THROW(table.run("t.missing"), ContractViolation);
  EXPECT_THROW(table.add("t.first", "Test", "dup", [] {}), ContractViolation);
}

TEST(InvariantTable, FailingCheckThrowsInternalError) {
  audit::InvariantTable table;
  table.add("t.fail", "Test", "always fails",
            [] { RS_CHECK(false, "deliberate"); });
  EXPECT_THROW(table.run_all(), InternalError);
}

// ----------------------------------------------- engine-in-scheduler basics

std::vector<Window> aligned_window_pool() {
  // Aligned power-of-two windows across a few spans and positions.
  std::vector<Window> pool;
  for (Time start = 0; start < 1024; start += 256) pool.push_back(Window{start, start + 256});
  for (Time start = 0; start < 1024; start += 128) pool.push_back(Window{start, start + 128});
  pool.push_back(Window{0, 1024});
  pool.push_back(Window{0, 512});
  return pool;
}

/// Random insert/erase churn against a ReservationScheduler; returns the
/// number of requests served.
std::size_t churn(ReservationScheduler& scheduler, std::size_t steps,
                  std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Window> pool = aligned_window_pool();
  std::vector<JobId> active;
  std::uint64_t next = seed * 1'000'000 + 1;  // disjoint id ranges per call
  std::size_t served = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    if (!active.empty() && rng.chance(0.45)) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, active.size() - 1));
      scheduler.erase(active[at]);
      active[at] = active.back();
      active.pop_back();
      ++served;
    } else {
      const Window w = pool[static_cast<std::size_t>(
          rng.uniform(0, pool.size() - 1))];
      const JobId id{next++};
      try {
        scheduler.insert(id, w);
        active.push_back(id);
        ++served;
      } catch (const InfeasibleError&) {
        // Deliberately overloaded pockets are fine for this test.
      }
    }
  }
  return served;
}

TEST(AuditEngine, CleanWorkloadPassesDifferentialAudit) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.audit_policy = incremental_policy(1, 0, /*differential=*/true);
  ReservationScheduler scheduler(options);
  churn(scheduler, 600, 11);
  const auto work = scheduler.audit_work();
  EXPECT_GT(work.incremental_audits, 0u);
  EXPECT_GT(work.events, 0u);
  EXPECT_GT(work.regions_checked, 0u);
}

TEST(AuditEngine, AuditOffMeansZeroWork) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  ReservationScheduler scheduler(options);
  churn(scheduler, 300, 12);
  EXPECT_TRUE(scheduler.audit_work().zero());
  EXPECT_EQ(scheduler.audit_backlog(), 0u);
}

TEST(AuditEngine, BudgetedSliceDrainsBacklogEventually) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.trimming = false;  // no rebuild escalations; pure slice behavior
  options.audit_policy = incremental_policy(1, /*budget=*/2);
  ReservationScheduler scheduler(options);
  churn(scheduler, 400, 13);
  // Each request checks at most 2 regions; a backlog may remain. Draining
  // it with explicit audits must terminate with an empty backlog and no
  // violation.
  std::size_t guard = 0;
  while (scheduler.audit_backlog() > 0) {
    scheduler.incremental_audit();
    ASSERT_LT(++guard, 10'000u);
  }
  scheduler.audit();  // and the full sweep agrees
}

TEST(AuditEngine, MidStreamAttachEscalatesOnceThenTracks) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.trimming = false;  // keep rebuild escalations out of the count
  ReservationScheduler scheduler(options);
  churn(scheduler, 200, 14);
  EXPECT_TRUE(scheduler.audit_work().zero());

  scheduler.set_audit_policy(incremental_policy(/*cadence=*/0));
  scheduler.incremental_audit();  // full sweep + reseed
  const auto after_first = scheduler.audit_work();
  EXPECT_EQ(after_first.full_sweeps, 1u);

  churn(scheduler, 100, 15);
  scheduler.incremental_audit();  // now dirty-region only
  const auto after_second = scheduler.audit_work();
  EXPECT_EQ(after_second.full_sweeps, 1u);
  EXPECT_GT(after_second.regions_checked, 0u);
}

TEST(AuditEngine, PartitionedMigrationCarriesTrackingAcrossSwap) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.rebuild_batch = 16;  // force partitioned migrations early
  options.audit_policy = incremental_policy(1, 0, /*differential=*/true);
  ReservationScheduler scheduler(options);
  // Ramp through several doubling boundaries, then tear down through
  // halving boundaries; differential mode asserts incremental == full
  // throughout, including mid-migration and across the swap.
  std::vector<JobId> active;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    const Time start = static_cast<Time>(((i * 7) % 64) * 64);
    scheduler.insert(JobId{i}, Window{start, start + 64});
    active.push_back(JobId{i});
  }
  while (active.size() > 20) {
    scheduler.erase(active.back());
    active.pop_back();
  }
  EXPECT_GT(scheduler.audit_work().incremental_audits, 0u);
}

TEST(AuditEngine, RegisteredChecksMatchGlossaryAndPass) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  ReservationScheduler scheduler(options);
  churn(scheduler, 200, 16);

  audit::InvariantTable table;
  scheduler.register_invariants(table);
  ASSERT_EQ(table.size(), 5u);
  for (const char* name :
       {"rs.I1.jobs-and-occupancy", "rs.I2.window-ledgers",
        "rs.I3.interval-assignment-bound", "rs.I4.fulfillment-cache",
        "rs.I5.migration-coherence"}) {
    EXPECT_NE(table.find(name), nullptr) << name;
  }
  table.run_all();
  table.run("rs.I3.interval-assignment-bound");
}

TEST(AuditEngine, IncrementalRebuildAdapterAuditsThroughPolicy) {
  SchedulerOptions options;
  options.audit_policy = incremental_policy(1);
  IncrementalRebuildScheduler scheduler(options);
  std::vector<JobId> active;
  for (std::uint64_t i = 1; i <= 120; ++i) {
    const Time start = static_cast<Time>(((i * 5) % 32) * 64);
    scheduler.insert(JobId{i}, Window{start, start + 64});
    active.push_back(JobId{i});
  }
  while (active.size() > 10) {
    scheduler.erase(active.back());
    active.pop_back();
  }
  scheduler.incremental_audit();
  scheduler.audit();

  audit::InvariantTable table;
  scheduler.register_invariants(table);
  EXPECT_NE(table.find("irs.adapter-coherence"), nullptr);
  EXPECT_NE(table.find("irs.generations"), nullptr);
  table.run_all();
}

TEST(AuditEngine, SimDriverAuditHookFiresAtCadence) {
  // SimOptions::audit_every / audit_hook wire any scheduler's audit
  // machinery into the replay driver — per-request and batched modes.
  ChurnParams params;
  params.seed = 77;
  params.target_active = 64;
  params.requests = 256;
  params.min_span = 64;
  params.max_span = 512;
  params.aligned = true;
  const auto trace = make_churn_trace(params);

  for (const std::size_t batch_size : {std::size_t{0}, std::size_t{16}}) {
    SchedulerOptions options;
    options.overflow = OverflowPolicy::kBestEffort;
    options.audit_policy = incremental_policy(/*cadence=*/0);
    ReservationScheduler scheduler(options);
    std::size_t hook_calls = 0;
    SimOptions sim;
    sim.batch_size = batch_size;
    sim.audit_every = 32;
    sim.audit_hook = [&] {
      ++hook_calls;
      scheduler.incremental_audit();
    };
    const SimReport report = replay_trace(scheduler, trace, sim);
    EXPECT_TRUE(report.clean());
    EXPECT_GT(hook_calls, 0u) << "batch_size " << batch_size;
    EXPECT_GE(scheduler.audit_work().incremental_audits, hook_calls);
  }
}

TEST(AuditEngine, ComponentAuditsEnumerableFromOneTable) {
  // Satellite: the stray per-component audit() entry points are unified
  // behind the registration table — one table can hold every component.
  RigidBlockSim sim;
  ASSERT_TRUE(sim.insert(JobId{1}, 2, Window{0, 8}).has_value());
  ASSERT_TRUE(sim.insert(JobId{2}, 1, Window{0, 8}).has_value());

  ShardedScheduler machines(3, [] { return std::make_unique<ReservationScheduler>(); });
  for (std::uint64_t i = 1; i <= 9; ++i) {
    machines.insert(JobId{i}, Window{0, 64});
  }

  SchedulerOptions options;
  IncrementalRebuildScheduler rebuild(options);
  rebuild.insert(JobId{1}, Window{0, 64});

  audit::InvariantTable table;
  sim.register_invariants(table);
  machines.register_invariants(table);
  rebuild.register_invariants(table);
  EXPECT_NE(table.find("rbs.blocks-on-slot-map"), nullptr);
  EXPECT_NE(table.find("rbs.no-orphan-slots"), nullptr);
  EXPECT_NE(table.find("svc.L3.balance-shares"), nullptr);
  EXPECT_NE(table.find("irs.generations"), nullptr);
  table.run_all();

  // Incremental balance audit on the sequential reduction: first call is
  // the tracked full sweep, later calls only touch dirty windows.
  EXPECT_GT(machines.audit_balance_incremental(), 0u);
  EXPECT_EQ(machines.audit_balance_incremental(), 0u);
  machines.insert(JobId{50}, Window{64, 128});
  EXPECT_EQ(machines.audit_balance_incremental(), 1u);
}

}  // namespace
}  // namespace reasched
