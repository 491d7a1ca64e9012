#include <gtest/gtest.h>

#include <memory>

#include "core/naive_scheduler.hpp"
#include "schedule/validator.hpp"
#include "service/reallocating_scheduler.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

TEST(ReallocatingScheduler, AcceptsArbitraryWindows) {
  ReallocatingScheduler s(2);
  // Unaligned window: the pipeline aligns internally.
  const auto stats = s.insert(JobId{1}, Window{3, 77});
  EXPECT_EQ(stats.reallocations, 0u);
  const auto p = s.snapshot().find(JobId{1});
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(Window(3, 77).contains(p->slot));  // placement honors original
}

TEST(ReallocatingScheduler, PlacementInsideOriginalWindowAlways) {
  ReallocatingScheduler s(1);
  Rng rng(31);
  std::unordered_map<JobId, Window> active;
  std::uint64_t next = 1;
  for (int i = 0; i < 300; ++i) {
    const Time start = static_cast<Time>(rng.uniform(0, 1 << 16));
    const Time span = static_cast<Time>(rng.uniform(64, 2048));
    const JobId id{next++};
    const Window w{start, start + span};
    s.insert(id, w);
    active.emplace(id, w);
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
}

TEST(ReallocatingScheduler, DeleteMigratesAtMostOne) {
  ReallocatingScheduler s(4);
  std::vector<JobId> ids;
  for (unsigned i = 0; i < 40; ++i) {
    const JobId id{i + 1};
    s.insert(id, Window{0, 512});
    ids.push_back(id);
  }
  for (const JobId id : ids) {
    const auto stats = s.erase(id);
    EXPECT_LE(stats.migrations, 1u);
  }
  EXPECT_EQ(s.active_jobs(), 0u);
}

TEST(ReallocatingScheduler, NameAndMachines) {
  ReallocatingScheduler s(3);
  EXPECT_EQ(s.machines(), 3u);
  EXPECT_NE(s.name().find("m=3"), std::string::npos);
}

TEST(ReallocatingScheduler, CustomInnerScheduler) {
  // The same §5+§3 front end over the naive §4 baseline.
  ReallocatingScheduler s(
      2, [] { return std::make_unique<NaiveScheduler>(); }, "aligned-naive[m=2]");
  std::unordered_map<JobId, Window> active;
  for (unsigned i = 0; i < 20; ++i) {
    const JobId id{i + 1};
    const Window w{static_cast<Time>(i * 3), static_cast<Time>(i * 3 + 100)};
    s.insert(id, w);
    active.emplace(id, w);
  }
  EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
  EXPECT_EQ(s.name(), "aligned-naive[m=2]");
}

TEST(ReallocatingScheduler, RejectsEmptyWindow) {
  ReallocatingScheduler s(1);
  EXPECT_THROW(s.insert(JobId{1}, Window{5, 5}), ContractViolation);
}

}  // namespace
}  // namespace reasched
