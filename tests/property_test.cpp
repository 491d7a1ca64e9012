// Parameterized property sweeps: for every (scheduler, workload shape)
// combination the same invariants must hold — feasible schedule after every
// request, self-reported costs consistent with snapshot diffs, at most one
// migration per request for balancer-based schedulers.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/greedy_repair_scheduler.hpp"
#include "baseline/opt_rebuild_scheduler.hpp"
#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "service/reallocating_scheduler.hpp"
#include "sim/driver.hpp"
#include "workload/churn.hpp"
#include "workload/doctor_office.hpp"

namespace reasched {
namespace {

enum class Kind { kReservation, kNaiveAligned, kEdfRepair, kLatestFit, kOptRebuild };

struct Combo {
  Kind kind;
  unsigned machines;
  bool aligned_workload;
  std::uint64_t seed;
};

std::string combo_name(const testing::TestParamInfo<Combo>& info) {
  std::string name;
  switch (info.param.kind) {
    case Kind::kReservation: name = "reservation"; break;
    case Kind::kNaiveAligned: name = "naive"; break;
    case Kind::kEdfRepair: name = "edfrepair"; break;
    case Kind::kLatestFit: name = "latestfit"; break;
    case Kind::kOptRebuild: name = "optrebuild"; break;
  }
  name += "_m" + std::to_string(info.param.machines);
  name += info.param.aligned_workload ? "_aligned" : "_unaligned";
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

std::unique_ptr<IReallocScheduler> make_scheduler(const Combo& combo) {
  SchedulerOptions options;
  options.audit_policy.mode = audit::Mode::kFull;
  options.overflow = OverflowPolicy::kBestEffort;
  switch (combo.kind) {
    case Kind::kReservation:
      return std::make_unique<ReallocatingScheduler>(combo.machines, options);
    case Kind::kNaiveAligned:
      return std::make_unique<ReallocatingScheduler>(
          combo.machines, [] { return std::make_unique<NaiveScheduler>(); },
          "aligned-naive");
    case Kind::kEdfRepair:
      return std::make_unique<ReallocatingScheduler>(
          combo.machines,
          [] {
            return std::make_unique<GreedyRepairScheduler>(
                GreedyRepairScheduler::Fit::kEarliest);
          },
          "aligned-edf-repair");
    case Kind::kLatestFit:
      return std::make_unique<ReallocatingScheduler>(
          combo.machines,
          [] {
            return std::make_unique<GreedyRepairScheduler>(
                GreedyRepairScheduler::Fit::kLatest);
          },
          "aligned-latest-fit");
    case Kind::kOptRebuild:
      return std::make_unique<OptRebuildScheduler>(combo.machines);
  }
  return nullptr;
}

class SchedulerProperty : public testing::TestWithParam<Combo> {};

TEST_P(SchedulerProperty, ChurnInvariants) {
  const Combo combo = GetParam();
  ChurnParams params;
  params.seed = combo.seed;
  params.requests = 1200;
  params.target_active = 96;
  params.machines = combo.machines;
  params.aligned = combo.aligned_workload;
  const auto trace = make_churn_trace(params);

  auto scheduler = make_scheduler(combo);
  SimOptions options;
  options.validate_every = 10;
  options.check_costs_every = 25;
  const auto report = replay_trace(*scheduler, trace, options);
  EXPECT_TRUE(report.clean()) << scheduler->name() << ": " << report.first_issue;
  // Balancer-based schedulers migrate at most one job per request.
  if (combo.kind != Kind::kOptRebuild) {
    EXPECT_LE(report.metrics.max_migrations(), 1u) << scheduler->name();
  }
  EXPECT_EQ(report.metrics.rejected(), 0u) << scheduler->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerProperty,
    testing::Values(
        Combo{Kind::kReservation, 1, true, 1}, Combo{Kind::kReservation, 1, false, 2},
        Combo{Kind::kReservation, 4, true, 3}, Combo{Kind::kReservation, 4, false, 4},
        Combo{Kind::kReservation, 7, false, 5}, Combo{Kind::kNaiveAligned, 1, true, 6},
        Combo{Kind::kNaiveAligned, 3, false, 7}, Combo{Kind::kEdfRepair, 1, true, 8},
        Combo{Kind::kEdfRepair, 2, false, 9}, Combo{Kind::kLatestFit, 2, true, 10},
        Combo{Kind::kOptRebuild, 1, true, 11}, Combo{Kind::kOptRebuild, 2, false, 12}),
    combo_name);

class DoctorOfficeProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(DoctorOfficeProperty, BookingsStayFeasible) {
  DoctorOfficeParams params;
  params.seed = GetParam();
  params.days = 48;
  SchedulerOptions options;
  options.audit_policy.mode = audit::Mode::kFull;
  options.overflow = OverflowPolicy::kBestEffort;
  ReallocatingScheduler scheduler(1, options);
  SimOptions sim;
  sim.validate_every = 5;
  const auto report = replay_trace(scheduler, make_doctor_office_trace(params), sim);
  EXPECT_TRUE(report.clean()) << report.first_issue;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoctorOfficeProperty, testing::Values(1, 2, 3, 4, 5));

// Gamma sweep: with generous slack the reservation scheduler must never
// degrade (no parked jobs); the guarantee's precondition is satisfied by
// construction.
class SlackSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SlackSweep, NoDegradationWhenUnderallocated) {
  const std::uint64_t gamma = GetParam();
  ChurnParams params;
  params.requests = 1000;
  params.target_active = 64;
  params.gamma = gamma;
  params.min_span = std::max<std::uint64_t>(64, gamma);
  params.max_span = 2048;
  const auto trace = make_churn_trace(params);
  SchedulerOptions options;
  options.audit_policy.mode = audit::Mode::kFull;
  options.overflow = OverflowPolicy::kBestEffort;
  ReallocatingScheduler scheduler(1, options);
  const auto report = replay_trace(scheduler, trace);
  if (gamma >= 32) {
    // 8-underallocation of the aligned image is guaranteed for γ >= 32
    // (alignment costs 4x): Lemma 8 must hold throughout.
    EXPECT_EQ(report.metrics.degraded(), 0u) << "gamma=" << gamma;
  }
  EXPECT_EQ(report.metrics.rejected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Gammas, SlackSweep, testing::Values(8, 16, 32, 64, 128));

}  // namespace
}  // namespace reasched
