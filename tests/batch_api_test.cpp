// The IReallocScheduler::apply default implementation (sequential
// fallback): batch semantics must be indistinguishable from per-request
// serving for every scheduler, and rejections must be reported per-request
// instead of aborting the batch.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "service/reallocating_scheduler.hpp"
#include "sim/driver.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

std::vector<Request> small_churn(std::uint64_t seed, unsigned machines) {
  ChurnParams params;
  params.seed = seed;
  params.target_active = 128;
  params.requests = 1500;
  params.machines = machines;
  params.min_span = 64;
  params.max_span = 2048;
  return make_churn_trace(params);
}

TEST(BatchApi, DefaultApplyMatchesPerRequestServing) {
  const auto trace = small_churn(11, 1);
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;

  ReservationScheduler per_request(options);
  std::vector<RequestStats> want;
  for (const Request& request : trace) {
    want.push_back(request.kind == RequestKind::kInsert
                       ? per_request.insert(request.job, request.window)
                       : per_request.erase(request.job));
  }

  ReservationScheduler batched(options);
  std::vector<RequestStats> got;
  for (std::size_t first = 0; first < trace.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, trace.size() - first);
    const BatchResult result =
        batched.apply(std::span<const Request>(trace).subspan(first, count));
    ASSERT_TRUE(result.all_served());
    got.insert(got.end(), result.stats.begin(), result.stats.end());
  }

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].reallocations, want[i].reallocations) << i;
    EXPECT_EQ(got[i].migrations, want[i].migrations) << i;
  }
  EXPECT_EQ(batched.active_jobs(), per_request.active_jobs());
}

TEST(BatchApi, RejectionsAreReportedNotThrown) {
  // Window [0,1) on one machine: the second insert is infeasible, and its
  // delete (same batch) is moot.
  NaiveScheduler scheduler;
  const std::vector<Request> batch = {
      Request::insert(JobId{1}, Window{0, 1}),
      Request::insert(JobId{2}, Window{0, 1}),
      Request::erase(JobId{2}),
      Request::erase(JobId{1}),
  };
  const BatchResult result = scheduler.apply(batch);
  EXPECT_EQ(result.rejected, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(scheduler.active_jobs(), 0u);
}

TEST(BatchApi, RejectedIdMayBeReusedWithinTheBatch) {
  NaiveScheduler scheduler;
  const std::vector<Request> batch = {
      Request::insert(JobId{1}, Window{0, 1}),
      Request::insert(JobId{2}, Window{0, 1}),  // rejected: slot taken
      Request::erase(JobId{1}),
      Request::insert(JobId{2}, Window{0, 1}),  // now feasible
      Request::erase(JobId{2}),
  };
  const BatchResult result = scheduler.apply(batch);
  EXPECT_EQ(result.rejected, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(scheduler.active_jobs(), 0u);
}

TEST(BatchApi, TotalSumsServedRequests) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  ReallocatingScheduler scheduler(2, options);
  const auto trace = small_churn(3, 2);
  const BatchResult result = scheduler.apply(trace);
  ASSERT_TRUE(result.all_served());
  RequestStats sum;
  for (const RequestStats& stats : result.stats) sum += stats;
  EXPECT_EQ(sum.reallocations, result.total.reallocations);
  EXPECT_EQ(sum.migrations, result.total.migrations);
  EXPECT_EQ(sum.levels_touched, result.total.levels_touched);
}

TEST(BatchApi, DriverBatchedSkipsRepeatedDeletesLikePerRequestMode) {
  // A second delete of the same job must be skipped even while the first
  // delete is still sitting in the batch buffer — the per-request Runner
  // skips it after applying the first, and batched mode must agree.
  const std::vector<Request> trace = {
      Request::insert(JobId{1}, Window{0, 64}),
      Request::erase(JobId{1}),
      Request::erase(JobId{1}),
      Request::insert(JobId{2}, Window{0, 64}),
  };
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;

  ReallocatingScheduler sequential(1, options);
  const auto want = replay_trace(sequential, trace, {});

  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{8}}) {
    ReallocatingScheduler batched(1, options);
    SimOptions sim;
    sim.batch_size = batch_size;
    const auto got = replay_trace(batched, trace, sim);
    EXPECT_EQ(got.skipped_deletes, want.skipped_deletes) << batch_size;
    EXPECT_EQ(got.metrics.requests(), want.metrics.requests()) << batch_size;
    EXPECT_EQ(batched.active_jobs(), sequential.active_jobs()) << batch_size;
  }
}

TEST(BatchApi, DriverBatchedReplayMatchesSequentialMetrics) {
  const auto trace = small_churn(7, 2);
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;

  ReallocatingScheduler sequential(2, options);
  SimOptions sim;
  sim.validate_every = 50;
  const auto want = replay_trace(sequential, trace, sim);

  ReallocatingScheduler batched(2, options);
  SimOptions batched_sim;
  batched_sim.validate_every = 50;
  batched_sim.batch_size = 32;
  const auto got = replay_trace(batched, trace, batched_sim);

  EXPECT_TRUE(want.clean()) << want.first_issue;
  EXPECT_TRUE(got.clean()) << got.first_issue;
  EXPECT_EQ(got.metrics.requests(), want.metrics.requests());
  EXPECT_EQ(got.metrics.inserts(), want.metrics.inserts());
  EXPECT_EQ(got.metrics.deletes(), want.metrics.deletes());
  EXPECT_EQ(got.metrics.rejected(), want.metrics.rejected());
  EXPECT_EQ(got.metrics.max_reallocations(), want.metrics.max_reallocations());
  EXPECT_EQ(got.metrics.max_migrations(), want.metrics.max_migrations());
  EXPECT_EQ(got.skipped_deletes, want.skipped_deletes);
}

}  // namespace
}  // namespace reasched
