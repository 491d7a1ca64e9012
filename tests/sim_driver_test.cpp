#include <gtest/gtest.h>

#include "baseline/greedy_repair_scheduler.hpp"
#include "service/reallocating_scheduler.hpp"
#include "sim/driver.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

TEST(SimDriver, ReplayCollectsMetrics) {
  ChurnParams params;
  params.requests = 800;
  params.target_active = 64;
  const auto trace = make_churn_trace(params);

  ReallocatingScheduler scheduler(1);
  SimOptions options;
  options.validate_every = 50;
  const auto report = replay_trace(scheduler, trace, options);
  EXPECT_TRUE(report.clean()) << report.first_issue;
  EXPECT_EQ(report.metrics.requests() + report.metrics.rejected(), trace.size());
  EXPECT_GT(report.metrics.inserts(), 0u);
  EXPECT_GT(report.metrics.deletes(), 0u);
}

TEST(SimDriver, CostCrossCheckAgainstDiff) {
  ChurnParams params;
  params.requests = 600;
  params.target_active = 48;
  const auto trace = make_churn_trace(params);

  ReallocatingScheduler scheduler(2);
  SimOptions options;
  options.validate_every = 1;
  options.check_costs_every = 1;
  const auto report = replay_trace(scheduler, trace, options);
  EXPECT_EQ(report.cost_mismatches, 0u) << report.first_issue;
  EXPECT_EQ(report.validation_failures, 0u) << report.first_issue;
}

TEST(SimDriver, OnRequestHookSeesEveryRequest) {
  ChurnParams params;
  params.requests = 100;
  params.target_active = 16;
  const auto trace = make_churn_trace(params);
  ReallocatingScheduler scheduler(1);
  SimOptions options;
  std::size_t seen = 0;
  options.on_request = [&](std::size_t index, const Request&, const RequestStats&) {
    EXPECT_EQ(index, seen);
    ++seen;
  };
  const auto report = replay_trace(scheduler, trace, options);
  EXPECT_EQ(seen, report.metrics.requests());
}

TEST(SimDriver, ToleratesInfeasibleInserts) {
  // A trace that double-books a single slot: second insert is rejected.
  std::vector<Request> trace = {
      Request::insert(JobId{1}, Window{0, 1}),
      Request::insert(JobId{2}, Window{0, 1}),
  };
  GreedyRepairScheduler scheduler;
  SimOptions options;
  options.tolerate_infeasible = true;
  const auto report = replay_trace(scheduler, trace, options);
  EXPECT_EQ(report.metrics.rejected(), 1u);
  EXPECT_EQ(report.metrics.inserts(), 1u);
}

TEST(SimDriver, RethrowsWhenNotTolerated) {
  std::vector<Request> trace = {
      Request::insert(JobId{1}, Window{0, 1}),
      Request::insert(JobId{2}, Window{0, 1}),
  };
  GreedyRepairScheduler scheduler;
  SimOptions options;
  options.tolerate_infeasible = false;
  EXPECT_THROW((void)replay_trace(scheduler, trace, options), InfeasibleError);
}

TEST(SimDriver, AdaptiveAdversaryLoop) {
  // A tiny adaptive adversary: insert three jobs, then delete the one the
  // scheduler placed earliest.
  GreedyRepairScheduler scheduler;
  int phase = 0;
  const auto adversary = [&](const Schedule& current) -> std::optional<Request> {
    if (phase < 3) {
      return Request::insert(JobId{static_cast<std::uint64_t>(++phase)}, Window{0, 8});
    }
    if (phase == 3) {
      ++phase;
      JobId earliest{};
      Time best = 1000;
      for (const auto& [id, placement] : current.assignments()) {
        if (placement.slot < best) {
          best = placement.slot;
          earliest = id;
        }
      }
      return Request::erase(earliest);
    }
    return std::nullopt;
  };
  const auto report = run_adaptive(scheduler, adversary);
  EXPECT_EQ(report.metrics.requests(), 4u);
  EXPECT_EQ(scheduler.active_jobs(), 2u);
}

}  // namespace
}  // namespace reasched
