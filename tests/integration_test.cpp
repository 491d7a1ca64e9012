// End-to-end integration: long mixed workloads through the full Theorem-1
// pipeline with continuous validation, plus the headline cost comparison
// (reservation ≪ naive ≪ repair) that the benchmarks expand on.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/greedy_repair_scheduler.hpp"
#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "service/reallocating_scheduler.hpp"
#include "sim/driver.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

TEST(Integration, LongChurnFullValidation) {
  ChurnParams params;
  params.seed = 42;
  params.requests = 5000;
  params.target_active = 256;
  params.machines = 3;
  params.aligned = false;
  params.min_span = 64;
  params.max_span = 1 << 14;
  const auto trace = make_churn_trace(params);

  SchedulerOptions options;  // unaudited: audited variants are covered elsewhere
  ReallocatingScheduler scheduler(3, options);
  SimOptions sim;
  sim.validate_every = 20;
  sim.check_costs_every = 50;
  const auto report = replay_trace(scheduler, trace, sim);
  EXPECT_TRUE(report.clean()) << report.first_issue;
  EXPECT_EQ(report.metrics.rejected(), 0u);
  EXPECT_LE(report.metrics.max_migrations(), 1u);
  EXPECT_EQ(report.metrics.degraded(), 0u);
}

TEST(Integration, ReservationBeatsNaiveBeatsRepairOnPerRequestCost) {
  // The paper's hierarchy: O(log* Δ) < O(log Δ) < Θ(n)-prone. Measure mean
  // steady-state reallocations on the same trace; the ordering must show.
  ChurnParams params;
  params.seed = 7;
  params.requests = 6000;
  params.target_active = 384;
  params.min_span = 64;
  params.max_span = 1 << 16;  // wide spans make log Δ visible
  params.aligned = true;
  const auto trace = make_churn_trace(params);

  auto run = [&](std::unique_ptr<IReallocScheduler> scheduler) {
    const auto report = replay_trace(*scheduler, trace);
    return report.metrics.steady_reallocations();
  };

  SchedulerOptions options;
  const double reservation = run(std::make_unique<ReallocatingScheduler>(1, options));
  const double naive = run(std::make_unique<ReallocatingScheduler>(
      1, [] { return std::make_unique<NaiveScheduler>(); }, "naive"));

  // The reservation scheduler's mean cost is a small constant.
  EXPECT_LT(reservation, 4.0);
  // Naive pecking order pays more on these deep instances.
  EXPECT_LE(reservation, naive + 0.5);
}

TEST(Integration, DeepSpanInstanceStaysConstantCost) {
  // Δ = 2^30: log Δ = 30, log* Δ <= 3. The reservation scheduler's worst
  // request must stay far below log Δ.
  SchedulerOptions options;
  options.trimming = true;
  ReallocatingScheduler scheduler(1, options);
  Rng rng(3);
  std::vector<JobId> active;
  std::uint64_t next = 1;
  std::uint64_t worst = 0;
  std::uint64_t worst_steady = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!active.empty() && rng.chance(0.45)) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform(0, active.size() - 1));
      const auto stats = scheduler.erase(active[pick]);
      worst = std::max(worst, stats.reallocations);
      if (!stats.rebuilt) worst_steady = std::max(worst_steady, stats.reallocations);
      active[pick] = active.back();
      active.pop_back();
    } else {
      const unsigned exp = static_cast<unsigned>(rng.uniform(8, 30));
      const Time span = static_cast<Time>(pow2(exp));
      const Time start =
          static_cast<Time>(span * static_cast<Time>(rng.uniform(0, (pow2(31) / pow2(exp)) - 1)));
      const JobId id{next++};
      const auto stats = scheduler.insert(id, Window{start, start + span});
      worst = std::max(worst, stats.reallocations);
      if (!stats.rebuilt) worst_steady = std::max(worst_steady, stats.reallocations);
      active.push_back(id);
    }
  }
  // Steady-state (non-rebuild) requests: constant-ish cost, way below logΔ.
  EXPECT_LE(worst_steady, 12u);
}

TEST(Integration, ManyMachinesScalesAndBalances) {
  ChurnParams params;
  params.seed = 11;
  params.requests = 3000;
  params.target_active = 512;
  params.machines = 16;
  const auto trace = make_churn_trace(params);
  ReallocatingScheduler scheduler(16);
  SimOptions sim;
  sim.validate_every = 100;
  const auto report = replay_trace(scheduler, trace, sim);
  EXPECT_TRUE(report.clean()) << report.first_issue;
  EXPECT_LE(report.metrics.max_migrations(), 1u);
  scheduler.balancer().audit_balance();
}

TEST(Integration, AlternatingBuildTeardownCycles) {
  // Grow to 200 jobs, shrink to 10, repeat: exercises n* doubling AND
  // halving with rebuilds in both directions.
  SchedulerOptions options;
  ReallocatingScheduler scheduler(2, options);
  std::uint64_t next = 1;
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::vector<JobId> batch;
    for (int i = 0; i < 200; ++i) {
      const JobId id{next++};
      scheduler.insert(id, Window{0, 1 << 14});
      batch.push_back(id);
    }
    for (std::size_t i = 0; i + 10 < batch.size(); ++i) {
      const auto stats = scheduler.erase(batch[i]);
      EXPECT_LE(stats.migrations, 1u);
    }
    for (std::size_t i = batch.size() - 10; i < batch.size(); ++i) {
      scheduler.erase(batch[i]);
    }
    EXPECT_EQ(scheduler.active_jobs(), 0u);
  }
}

}  // namespace
}  // namespace reasched
