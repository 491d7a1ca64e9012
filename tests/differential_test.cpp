// Differential testing: every scheduler in the repository replays the same
// traces; all must maintain feasibility, report costs consistent with the
// snapshot diff, and (for balancer-based ones) respect the one-migration
// bound. Any divergence in these universals is a bug in somebody.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/greedy_repair_scheduler.hpp"
#include "baseline/opt_rebuild_scheduler.hpp"
#include "core/incremental_rebuild.hpp"
#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "service/reallocating_scheduler.hpp"
#include "sim/driver.hpp"
#include "sim/sweep.hpp"
#include "workload/churn.hpp"
#include "workload/funnel.hpp"

namespace reasched {
namespace {

std::vector<SweepJob> full_roster_jobs(const std::vector<Request>& trace,
                                       unsigned machines, const SimOptions& sim) {
  SchedulerOptions best_effort;
  best_effort.overflow = OverflowPolicy::kBestEffort;
  std::vector<SweepJob> jobs;
  jobs.push_back({[machines, best_effort] {
                    return std::make_unique<ReallocatingScheduler>(machines,
                                                                   best_effort);
                  },
                  &trace, sim});
  jobs.push_back({[machines, best_effort] {
                    return std::make_unique<ReallocatingScheduler>(
                        machines,
                        [best_effort] {
                          return std::make_unique<IncrementalRebuildScheduler>(
                              best_effort);
                        },
                        "incremental");
                  },
                  &trace, sim});
  jobs.push_back({[machines] {
                    return std::make_unique<ReallocatingScheduler>(
                        machines, [] { return std::make_unique<NaiveScheduler>(); },
                        "naive");
                  },
                  &trace, sim});
  jobs.push_back({[machines] {
                    return std::make_unique<ReallocatingScheduler>(
                        machines,
                        [] {
                          return std::make_unique<GreedyRepairScheduler>(
                              GreedyRepairScheduler::Fit::kEarliest);
                        },
                        "edf");
                  },
                  &trace, sim});
  jobs.push_back(
      {[machines] { return std::make_unique<OptRebuildScheduler>(machines); }, &trace,
       sim});
  return jobs;
}

TEST(Differential, AllSchedulersCleanOnChurn) {
  ChurnParams params;
  params.seed = 77;
  params.requests = 1500;
  params.target_active = 128;
  params.machines = 2;
  params.min_span = 64;
  params.max_span = 2048;
  const auto trace = make_churn_trace(params);

  SimOptions sim;
  sim.validate_every = 10;
  sim.check_costs_every = 20;
  const auto reports = replay_sweep(full_roster_jobs(trace, 2, sim));
  const char* names[] = {"reservation", "incremental", "naive", "edf", "opt"};
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i].clean()) << names[i] << ": " << reports[i].first_issue;
    EXPECT_EQ(reports[i].metrics.rejected(), 0u) << names[i];
    if (i != 4) {  // all but opt-rebuild sit behind the §3 balancer
      EXPECT_LE(reports[i].metrics.max_migrations(), 1u) << names[i];
    }
  }
}

TEST(Differential, AllSchedulersCleanOnFunnel) {
  FunnelParams params;
  params.seed = 5;
  params.min_span_log = 6;
  params.max_span_log = 13;
  params.churn_pairs = 500;
  params.adversarial = true;
  const auto trace = make_funnel_trace(params);

  SimOptions sim;
  sim.validate_every = 25;
  sim.check_costs_every = 50;
  const auto reports = replay_sweep(full_roster_jobs(trace, 1, sim));
  for (const auto& report : reports) {
    EXPECT_TRUE(report.clean()) << report.first_issue;
  }
}

TEST(Differential, ReservationNeverDegradesWhereNaiveSucceeds) {
  // On γ-underallocated traces the reservation scheduler must never park;
  // the comparison quantifies the paper's core promise.
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    ChurnParams params;
    params.seed = seed;
    params.requests = 800;
    params.target_active = 96;
    params.min_span = 64;
    params.max_span = 4096;
    const auto trace = make_churn_trace(params);
    SchedulerOptions options;
    options.overflow = OverflowPolicy::kBestEffort;
    ReallocatingScheduler reservation(1, options);
    const auto report = replay_trace(reservation, trace);
    EXPECT_EQ(report.metrics.degraded(), 0u) << "seed " << seed;
    EXPECT_EQ(report.metrics.rejected(), 0u) << "seed " << seed;
  }
}

TEST(Differential, DoubledTraceKeepsDeamortizedVariantHealthy) {
  // §4: the deamortized variant needs the duplicated instance to stay
  // feasible, i.e. the original to be 2γ-underallocated. Our generator's
  // γ=16 traces satisfy the γ=8 machinery with the required factor 2.
  ChurnParams params;
  params.seed = 31;
  params.requests = 1200;
  params.target_active = 128;
  params.gamma = 16;
  params.min_span = 64;
  params.max_span = 4096;
  const auto trace = make_churn_trace(params);

  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  ReallocatingScheduler incremental(
      1, [options] { return std::make_unique<IncrementalRebuildScheduler>(options); },
      "incremental");
  SimOptions sim;
  sim.validate_every = 10;
  const auto report = replay_trace(incremental, trace, sim);
  EXPECT_TRUE(report.clean()) << report.first_issue;
  EXPECT_EQ(report.metrics.degraded(), 0u);
}

}  // namespace
}  // namespace reasched
