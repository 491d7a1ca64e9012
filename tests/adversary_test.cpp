// Executable lower bounds: the §6 constructions must actually force the
// costs the paper proves, against our own schedulers.
#include <gtest/gtest.h>

#include "baseline/greedy_repair_scheduler.hpp"
#include "baseline/opt_rebuild_scheduler.hpp"
#include "core/naive_scheduler.hpp"
#include "feasibility/underallocation.hpp"
#include "service/reallocating_scheduler.hpp"
#include "sim/driver.hpp"
#include "workload/adversary.hpp"

namespace reasched {
namespace {

TEST(Lemma11, ForcesLinearMigrations) {
  // m = 4 machines, 10 rounds of 6m = 24 requests. Lemma 11: at least m/2
  // migrations per round for ANY deterministic scheduler — ours included.
  constexpr unsigned kMachines = 4;
  constexpr std::uint64_t kRounds = 10;
  ReallocatingScheduler scheduler(kMachines);
  Lemma11Adversary adversary(kMachines, kRounds);
  SimOptions options;
  options.validate_every = 1;
  const auto report = run_adaptive(
      scheduler, [&](const Schedule& s) { return adversary.next(s); }, options);
  EXPECT_TRUE(report.clean()) << report.first_issue;
  // Total migrations >= rounds * m/2 (the span-1 jobs squeeze one span-2
  // job off each of the emptied machines).
  EXPECT_GE(report.metrics.migrations().sum(),
            static_cast<double>(kRounds * kMachines / 2));
}

TEST(Lemma11, AdversaryEmitsSixMRequestsPerRound) {
  constexpr unsigned kMachines = 2;
  Lemma11Adversary adversary(kMachines, 3);
  OptRebuildScheduler scheduler(kMachines);
  const auto report = run_adaptive(
      scheduler, [&](const Schedule& s) { return adversary.next(s); });
  EXPECT_EQ(adversary.requests_emitted(), 3u * 6u * kMachines);
  EXPECT_EQ(report.metrics.requests(), 3u * 6u * kMachines);
}

TEST(Lemma11, RejectsOddMachineCount) {
  EXPECT_THROW(Lemma11Adversary(3, 1), ContractViolation);
  EXPECT_THROW(Lemma11Adversary(1, 1), ContractViolation);
}

TEST(Lemma12, ForcesQuadraticTotalReallocations) {
  // η staircase jobs + toggling fillers: every toggle moves every job, for
  // any scheduler (the schedule is forced). Verify with the EDF-canonical
  // scheduler, which realizes the minimum possible cost here.
  constexpr std::uint64_t kEta = 40;
  constexpr std::uint64_t kToggles = 20;
  const auto trace = make_lemma12_trace(kEta, kToggles);
  OptRebuildScheduler scheduler(1);
  SimOptions options;
  options.validate_every = 1;
  const auto report = replay_trace(scheduler, trace, options);
  EXPECT_TRUE(report.clean()) << report.first_issue;
  // Each of the 2*kToggles filler inserts forces ~kEta moves: Θ(η·toggles),
  // i.e. Θ(s²) when toggles ~ η ~ s.
  EXPECT_GE(report.metrics.reallocations().sum(),
            static_cast<double>(kEta * kToggles));
}

TEST(Lemma12, EdfRepairPaysFullCascadeOnUpwardToggles) {
  // The deadline-driven repair baseline serves the *upward* toggles (its
  // displacement chain moves later-deadline jobs) and pays the full Θ(η)
  // cascade on each one it serves; the downward toggles it cannot serve at
  // all (no occupant has a strictly later deadline) and must reject —
  // greedy repair is not even complete on zero-slack instances.
  constexpr std::uint64_t kEta = 32;
  const auto trace = make_lemma12_trace(kEta, 16);
  GreedyRepairScheduler scheduler(GreedyRepairScheduler::Fit::kEarliest);
  const auto report = replay_trace(scheduler, trace);
  EXPECT_GE(report.metrics.max_reallocations(), kEta);  // the first cascade
  EXPECT_GT(report.metrics.rejected(), 0u);             // downward toggles
  EXPECT_EQ(report.skipped_deletes, report.metrics.rejected());
}

TEST(Lemma12, SpanPeckingOrderCannotServeZeroSlackInstances) {
  // Documented limitation the paper's underallocation assumption exists
  // for: span-based pecking order only displaces strictly-longer jobs, so
  // the zero-slack staircase rejects the filler inserts outright.
  const auto trace = make_lemma12_trace(8, 2);
  NaiveScheduler scheduler;
  const auto report = replay_trace(scheduler, trace);
  EXPECT_GT(report.metrics.rejected(), 0u);
}

TEST(Lemma12, InstanceIsNotUnderallocated) {
  // Sanity: the construction has zero slack — it cannot contradict
  // Theorem 1, whose guarantee needs γ-underallocation.
  const auto trace = make_lemma12_trace(16, 1);
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < 16; ++i) {
    jobs.push_back({trace[i].job, trace[i].window});
  }
  EXPECT_FALSE(gamma_underallocated(jobs, 1, 2));
}

}  // namespace
}  // namespace reasched
