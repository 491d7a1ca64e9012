#include <gtest/gtest.h>

#include "service/reallocating_scheduler.hpp"
#include "sim/sweep.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

TEST(Sweep, MatchesSerialReplay) {
  ChurnParams params;
  params.requests = 600;
  params.target_active = 64;
  const auto trace = make_churn_trace(params);

  // Serial reference.
  ReallocatingScheduler reference(2);
  const auto serial = replay_trace(reference, trace);

  // Parallel sweep over four identical cells: every report must agree with
  // the serial run (schedulers are deterministic).
  std::vector<SweepJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(SweepJob{
        [] { return std::make_unique<ReallocatingScheduler>(2); }, &trace, {}});
  }
  const auto reports = replay_sweep(jobs, /*threads=*/4);
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& report : reports) {
    EXPECT_EQ(report.metrics.requests(), serial.metrics.requests());
    EXPECT_DOUBLE_EQ(report.metrics.reallocations().sum(),
                     serial.metrics.reallocations().sum());
    EXPECT_EQ(report.metrics.max_migrations(), serial.metrics.max_migrations());
  }
}

TEST(Sweep, PreservesJobOrder) {
  ChurnParams small;
  small.requests = 100;
  small.target_active = 16;
  const auto trace_small = make_churn_trace(small);
  ChurnParams big = small;
  big.requests = 400;
  const auto trace_big = make_churn_trace(big);

  std::vector<SweepJob> jobs;
  jobs.push_back(SweepJob{
      [] { return std::make_unique<ReallocatingScheduler>(1); }, &trace_small, {}});
  jobs.push_back(SweepJob{
      [] { return std::make_unique<ReallocatingScheduler>(1); }, &trace_big, {}});
  const auto reports = replay_sweep(jobs, 2);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_LT(reports[0].metrics.requests(), reports[1].metrics.requests());
}

TEST(Sweep, RejectsIncompleteJobs) {
  std::vector<SweepJob> jobs;
  jobs.push_back(SweepJob{nullptr, nullptr, {}});
  EXPECT_THROW((void)replay_sweep(jobs), ContractViolation);
}

}  // namespace
}  // namespace reasched
