// Custom level tables make levels beyond the paper's reachable at laptop
// scale: these sweeps drive the cross-level machinery (allowance updates,
// MOVE swaps, displacement cascades) through 4-level towers with the full
// internal audit on every request — the hardest configuration the
// reservation scheduler supports.
#include <gtest/gtest.h>

#include "core/reservation_scheduler.hpp"
#include "schedule/validator.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

struct TowerCase {
  std::uint64_t seed;
  bool trimming;
};

class DeepTower : public testing::TestWithParam<TowerCase> {};

std::string tower_name(const testing::TestParamInfo<TowerCase>& info) {
  return "seed" + std::to_string(info.param.seed) +
         (info.param.trimming ? "_trim" : "_notrim");
}

TEST_P(DeepTower, ChurnAcrossFourLevels) {
  const TowerCase param = GetParam();
  SchedulerOptions options;
  options.levels = LevelTable::custom({32, 256, pow2(16), pow2(62)});
  options.trimming = param.trimming;
  options.overflow = OverflowPolicy::kBestEffort;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);

  Rng rng(param.seed);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  std::uint64_t worst = 0;
  for (int step = 0; step < 800; ++step) {
    if (!active.empty() && rng.chance(0.45)) {
      const auto victim = std::next(
          active.begin(), static_cast<long>(rng.uniform(0, active.size() - 1)));
      const auto stats = s.erase(victim->first);
      if (!stats.rebuilt) worst = std::max(worst, stats.reallocations);
      active.erase(victim);
    } else {
      // Spans across all four levels: 8 (L0), 64 (L1), 4096 (L2), 2^17 (L3).
      const unsigned pick = static_cast<unsigned>(rng.uniform(0, 3));
      const unsigned exp = pick == 0 ? 3u : pick == 1 ? 6u : pick == 2 ? 12u : 17u;
      const Time span = static_cast<Time>(pow2(exp));
      const Time start = static_cast<Time>(
          span * static_cast<Time>(rng.uniform(0, pow2(18 - exp) - 1)));
      const JobId id{next++};
      const Window w{start, start + span};
      const auto stats = s.insert(id, w);
      if (!stats.rebuilt) worst = std::max(worst, stats.reallocations);
      active.emplace(id, w);
    }
    if (step % 80 == 0) {
      ASSERT_TRUE(validate_schedule(s.snapshot(), active).ok()) << "step " << step;
    }
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  // 4 levels: worst steady request stays O(levels), far below n.
  EXPECT_LE(worst, 16u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepTower,
                         testing::Values(TowerCase{1, true}, TowerCase{2, true},
                                         TowerCase{3, false}, TowerCase{4, false},
                                         TowerCase{5, true}, TowerCase{6, false}),
                         tower_name);

TEST(DeepTowerFunnelLike, PrefixPressureAcrossLevels) {
  // A funnel-style nested chain reaching level 3, with churn at the bottom.
  SchedulerOptions options;
  options.levels = LevelTable::custom({32, 256, pow2(16), pow2(62)});
  options.trimming = false;
  options.overflow = OverflowPolicy::kBestEffort;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);
  std::uint64_t next = 1;
  std::unordered_map<JobId, Window> active;
  auto add = [&](Time span, int count) {
    for (int i = 0; i < count; ++i) {
      const JobId id{next++};
      const Window w{0, span};
      s.insert(id, w);
      active.emplace(id, w);
    }
  };
  add(64, 4);                               // level 1
  add(4096, 16);                            // level 2
  add(static_cast<Time>(pow2(17)), 64);     // level 3
  add(16, 2);                               // level 0
  ASSERT_TRUE(validate_schedule(s.snapshot(), active).ok());

  // Churn the level-0/1 jobs: displacement pressure reaches upward.
  Rng rng(12);
  std::vector<JobId> small;
  for (const auto& [id, w] : active) {
    if (w.span() <= 64) small.push_back(id);
  }
  for (int round = 0; round < 200; ++round) {
    const std::size_t pick = static_cast<std::size_t>(rng.uniform(0, small.size() - 1));
    const Window w = active.at(small[pick]);
    s.erase(small[pick]);
    active.erase(small[pick]);
    const JobId id{next++};
    s.insert(id, w);
    active.emplace(id, w);
    small[pick] = id;
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  EXPECT_EQ(s.parked_jobs(), 0u);
}

}  // namespace
}  // namespace reasched
