// Service-layer differential tests: the sharded batch path must be
// indistinguishable from the sequential reduction — a one-shard
// ShardedScheduler served per request through insert()/erase() (or the
// default IReallocScheduler::apply loop), whose schedules the golden
// digests pin — with identical snapshots, per-request stats and ledger
// invariants for every shard count and batch size, because delegation is
// fixed by the §3 round-robin rule. Rejection handling (rollback + exact
// sequential replay) is exercised separately with deliberately infeasible
// batches.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "schedule/validator.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/driver.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

ShardedScheduler::Factory reservation_factory() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  return [options] { return std::make_unique<ReservationScheduler>(options); };
}

ShardedScheduler::Factory naive_factory() {
  return [] { return std::make_unique<NaiveScheduler>(); };
}

std::vector<Request> churn_trace(std::uint64_t seed, unsigned machines,
                                 WindowPlacement placement, std::size_t requests) {
  ChurnParams params;
  params.seed = seed;
  params.target_active = 256;
  params.requests = requests;
  params.machines = machines;
  params.min_span = 64;
  params.max_span = 2048;
  params.placement = placement;
  return make_churn_trace(params);
}

void expect_same_stats(const RequestStats& a, const RequestStats& b, std::size_t at) {
  EXPECT_EQ(a.reallocations, b.reallocations) << "request " << at;
  EXPECT_EQ(a.migrations, b.migrations) << "request " << at;
  EXPECT_EQ(a.levels_touched, b.levels_touched) << "request " << at;
  EXPECT_EQ(a.degraded, b.degraded) << "request " << at;
  EXPECT_EQ(a.rebuilt, b.rebuilt) << "request " << at;
}

void expect_same_schedule(const Schedule& want, const Schedule& got) {
  ASSERT_EQ(want.machines(), got.machines());
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [job, placement] : want.assignments()) {
    const auto other = got.find(job);
    ASSERT_TRUE(other.has_value()) << "job " << job.value << " missing";
    EXPECT_EQ(other->machine, placement.machine) << "job " << job.value;
    EXPECT_EQ(other->slot, placement.slot) << "job " << job.value;
  }
}

/// Replays `trace` per-request through the sequential insert()/erase() path,
/// returning every request's stats.
std::vector<RequestStats> sequential_reference(ShardedScheduler& scheduler,
                                               const std::vector<Request>& trace) {
  std::vector<RequestStats> stats;
  stats.reserve(trace.size());
  for (const Request& request : trace) {
    stats.push_back(request.kind == RequestKind::kInsert
                        ? scheduler.insert(request.job, request.window)
                        : scheduler.erase(request.job));
  }
  return stats;
}

/// Replays `trace` through ShardedScheduler::apply in chunks of batch_size,
/// returning every request's stats. Expects no rejections.
std::vector<RequestStats> batched_run(ShardedScheduler& scheduler,
                                      const std::vector<Request>& trace,
                                      std::size_t batch_size) {
  std::vector<RequestStats> stats;
  stats.reserve(trace.size());
  for (std::size_t first = 0; first < trace.size(); first += batch_size) {
    const std::size_t count = std::min(batch_size, trace.size() - first);
    const BatchResult result =
        scheduler.apply(std::span<const Request>(trace).subspan(first, count));
    EXPECT_TRUE(result.all_served());
    stats.insert(stats.end(), result.stats.begin(), result.stats.end());
  }
  return stats;
}

TEST(ShardedScheduler, MatchesSequentialAtEveryShardCount) {
  for (const WindowPlacement placement :
       {WindowPlacement::kUniform, WindowPlacement::kNestedHotspots}) {
    const auto trace = churn_trace(17, 8, placement, 3000);
    ShardedScheduler reference(8, reservation_factory());
    const auto want = sequential_reference(reference, trace);
    reference.audit_balance();

    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
      ShardedScheduler::Options options;
      options.shards = shards;
      ShardedScheduler sharded(8, reservation_factory(), options);
      const auto got = batched_run(sharded, trace, 64);

      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_same_stats(want[i], got[i], i);
      }
      expect_same_schedule(reference.snapshot(), sharded.snapshot());
      EXPECT_EQ(sharded.active_jobs(), reference.active_jobs());
      sharded.audit_balance();
    }
  }
}

TEST(ShardedScheduler, BatchSizeIsInvisible) {
  const auto trace = churn_trace(23, 8, WindowPlacement::kNestedHotspots, 2000);
  ShardedScheduler reference(8, reservation_factory());
  const auto want = sequential_reference(reference, trace);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    ShardedScheduler::Options options;
    options.shards = 4;
    ShardedScheduler sharded(8, reservation_factory(), options);
    const auto got = batched_run(sharded, trace, batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_stats(want[i], got[i], i);
    }
    expect_same_schedule(reference.snapshot(), sharded.snapshot());
    sharded.audit_balance();
  }
}

TEST(ShardedScheduler, BatchedReplayThroughDriverStaysClean) {
  const auto trace = churn_trace(29, 8, WindowPlacement::kNestedHotspots, 2000);
  ShardedScheduler::Options options;
  options.shards = 4;
  ShardedScheduler sharded(8, reservation_factory(), options);
  SimOptions sim;
  sim.batch_size = 128;
  sim.validate_every = 100;
  const auto report = replay_trace(sharded, trace, sim);
  EXPECT_TRUE(report.clean()) << report.first_issue;
  EXPECT_EQ(report.metrics.rejected(), 0u);
  EXPECT_EQ(report.metrics.max_migrations(), 1u);
}

TEST(ShardedScheduler, RejectionRollsBackAndReplaysSequentially) {
  // Window [0,1): one slot per machine, so two jobs fit and the third is
  // infeasible. The optimistic plan sends jobs 1 and 3 to machine 0 and job
  // 2 to machine 1; job 3's rejection forces the rollback + sequential
  // replay path.
  const std::vector<Request> batch = {
      Request::insert(JobId{1}, Window{0, 1}),
      Request::insert(JobId{2}, Window{0, 1}),
      Request::insert(JobId{3}, Window{0, 1}),
  };
  ShardedScheduler reference(2, naive_factory());
  const BatchResult want = reference.IReallocScheduler::apply(batch);

  ShardedScheduler::Options options;
  options.shards = 2;
  ShardedScheduler sharded(2, naive_factory(), options);
  const BatchResult got = sharded.apply(batch);

  EXPECT_EQ(got.rejected, want.rejected);
  ASSERT_EQ(got.rejected.size(), 1u);
  EXPECT_EQ(got.rejected[0], 2u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_stats(want.stats[i], got.stats[i], i);
  }
  EXPECT_EQ(sharded.active_jobs(), 2u);
  expect_same_schedule(reference.snapshot(), sharded.snapshot());
  sharded.audit_balance();

  // The schedulers remain fully usable after the rollback.
  EXPECT_EQ(sharded.erase(JobId{1}).migrations, reference.erase(JobId{1}).migrations);
  sharded.audit_balance();
}

TEST(ShardedScheduler, EraseOfBatchRejectedInsertIsMoot) {
  const std::vector<Request> batch = {
      Request::insert(JobId{1}, Window{0, 1}),
      Request::insert(JobId{2}, Window{0, 1}),
      Request::erase(JobId{2}),
      Request::erase(JobId{1}),
  };
  ShardedScheduler sharded(1, naive_factory(), {});
  const BatchResult result = sharded.apply(batch);
  EXPECT_EQ(result.rejected, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(sharded.active_jobs(), 0u);
  sharded.audit_balance();
}

TEST(ShardedScheduler, RejectedIdMayBeRetriedWithinTheBatch) {
  // Same batch as the default-apply test RejectedIdMayBeReusedWithinTheBatch
  // (tests/batch_api_test.cpp): the retry insert of id 2 looks like a double
  // insert to the optimistic scan and must cut a sub-batch, not throw.
  const std::vector<Request> batch = {
      Request::insert(JobId{1}, Window{0, 1}),
      Request::insert(JobId{2}, Window{0, 1}),  // rejected: slot taken
      Request::erase(JobId{1}),
      Request::insert(JobId{2}, Window{0, 1}),  // now feasible
      Request::erase(JobId{2}),
  };
  ShardedScheduler reference(1, naive_factory());
  const BatchResult want = reference.IReallocScheduler::apply(batch);

  ShardedScheduler sharded(1, naive_factory(), {});
  const BatchResult got = sharded.apply(batch);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.rejected, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sharded.active_jobs(), 0u);
  sharded.audit_balance();

  // A genuine double insert must still throw, sub-batch cut or not.
  ShardedScheduler strict(2, naive_factory(), {});
  EXPECT_THROW(
      strict.apply(std::vector<Request>{Request::insert(JobId{7}, Window{0, 8}),
                                        Request::insert(JobId{7}, Window{0, 8})}),
      ContractViolation);
  EXPECT_EQ(strict.active_jobs(), 1u);  // the first insert was served
}

TEST(ShardedScheduler, RejectionUnwindsEraseAndMigration) {
  // Two machines under kThrow. Window [0,64) holds jobs 1 and 3 on machine 0
  // and job 2 on machine 1; the span-1 window [100,101) is full on both
  // machines. In one sub-batch, erasing job 2 makes machine 0 (the latest
  // extra) donate job 3 to machine 1 — a §3 migration — and the following
  // insert of job 12 lands on machine 0, which rejects it. The rollback
  // must unwind the insert, the migration and the erase ledger records
  // before the sequential replay.
  SchedulerOptions machine_options;
  machine_options.trimming = false;
  machine_options.overflow = OverflowPolicy::kThrow;
  const auto factory = [machine_options] {
    return std::make_unique<ReservationScheduler>(machine_options);
  };
  const std::vector<Request> setup = {
      Request::insert(JobId{1}, Window{0, 64}),
      Request::insert(JobId{2}, Window{0, 64}),
      Request::insert(JobId{3}, Window{0, 64}),
      Request::insert(JobId{10}, Window{100, 101}),
      Request::insert(JobId{11}, Window{100, 101}),
  };
  const std::vector<Request> batch = {
      Request::erase(JobId{2}),                       // migrates job 3
      Request::insert(JobId{12}, Window{100, 101}),  // rejected
      Request::insert(JobId{13}, Window{0, 64}),
  };
  ShardedScheduler reference(2, factory);
  ASSERT_TRUE(reference.IReallocScheduler::apply(setup).all_served());
  const BatchResult want = reference.IReallocScheduler::apply(batch);

  ShardedScheduler::Options options;
  options.shards = 2;
  ShardedScheduler sharded(2, factory, options);
  ASSERT_TRUE(sharded.apply(setup).all_served());
  const BatchResult got = sharded.apply(batch);

  EXPECT_EQ(want.rejected, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(want.stats[0].migrations, 1u);
  EXPECT_EQ(got.rejected, want.rejected);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_stats(want.stats[i], got.stats[i], i);
  }
  expect_same_stats(want.total, got.total, batch.size());
  expect_same_schedule(reference.snapshot(), sharded.snapshot());
  EXPECT_EQ(sharded.active_jobs(), reference.active_jobs());
  reference.audit_balance();
  sharded.audit_balance();
}

TEST(ShardedScheduler, IdReuseUnderNewWindowWithinOneSubBatch) {
  // Same id erased and re-inserted under a different window within one
  // batch: the plan commits the reuse in batch order, so per-request stats
  // and the schedule equal the sequential reduction's.
  const std::vector<Request> setup = {
      Request::insert(JobId{1}, Window{0, 64}),
      Request::insert(JobId{2}, Window{64, 128}),
      Request::insert(JobId{3}, Window{0, 64}),
  };
  const std::vector<Request> batch = {
      Request::erase(JobId{1}),
      Request::insert(JobId{1}, Window{64, 128}),
      Request::erase(JobId{1}),
      Request::insert(JobId{1}, Window{0, 64}),
      Request::erase(JobId{3}),
  };
  ShardedScheduler reference(2, reservation_factory());
  ASSERT_TRUE(reference.IReallocScheduler::apply(setup).all_served());
  const BatchResult want = reference.IReallocScheduler::apply(batch);

  ShardedScheduler::Options options;
  options.shards = 2;
  ShardedScheduler sharded(2, reservation_factory(), options);
  ASSERT_TRUE(sharded.apply(setup).all_served());
  const BatchResult got = sharded.apply(batch);

  EXPECT_TRUE(got.all_served());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_stats(want.stats[i], got.stats[i], i);
  }
  expect_same_schedule(reference.snapshot(), sharded.snapshot());
  EXPECT_EQ(sharded.active_jobs(), 2u);
  sharded.audit_balance();

  std::unordered_map<JobId, Window> active = {{JobId{1}, Window{0, 64}},
                                              {JobId{2}, Window{64, 128}}};
  EXPECT_TRUE(validate_schedule(sharded.snapshot(), active).ok());
}

TEST(ShardedScheduler, PreconditionViolationsThrow) {
  ShardedScheduler sharded(2, naive_factory(), {});
  ASSERT_TRUE(
      sharded.apply(std::vector<Request>{Request::insert(JobId{1}, Window{0, 8})})
          .all_served());
  EXPECT_THROW(
      sharded.apply(std::vector<Request>{Request::insert(JobId{1}, Window{0, 8})}),
      ContractViolation);
  EXPECT_THROW(sharded.apply(std::vector<Request>{Request::erase(JobId{99})}),
               ContractViolation);
  EXPECT_THROW(ShardedScheduler(0, naive_factory(), {}), ContractViolation);
}

}  // namespace
}  // namespace reasched
