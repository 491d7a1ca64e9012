#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace reasched {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(u64{1} << 62));
  EXPECT_FALSE(is_pow2((u64{1} << 62) + 1));
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(255), 7u);
  EXPECT_EQ(floor_log2(256), 8u);
  EXPECT_EQ(floor_log2(~u64{0}), 63u);
  EXPECT_THROW((void)floor_log2(0), ContractViolation);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bits, AlignDownHandlesNegatives) {
  EXPECT_EQ(align_down(0, 8), 0);
  EXPECT_EQ(align_down(7, 8), 0);
  EXPECT_EQ(align_down(8, 8), 8);
  EXPECT_EQ(align_down(-1, 8), -8);
  EXPECT_EQ(align_down(-8, 8), -8);
  EXPECT_EQ(align_down(-9, 8), -16);
}

TEST(Bits, AlignUp) {
  EXPECT_EQ(align_up(0, 8), 0);
  EXPECT_EQ(align_up(1, 8), 8);
  EXPECT_EQ(align_up(8, 8), 8);
  EXPECT_EQ(align_up(-1, 8), 0);
  EXPECT_EQ(align_up(-9, 8), -8);
}

TEST(Bits, LogStar) {
  EXPECT_EQ(log_star(1), 0u);
  EXPECT_EQ(log_star(2), 1u);
  EXPECT_EQ(log_star(4), 2u);
  EXPECT_EQ(log_star(16), 3u);
  EXPECT_EQ(log_star(65536), 4u);
  // 2^65536 is unrepresentable, so every u64 has log* <= 5.
  EXPECT_LE(log_star(~u64{0}), 5u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, LogUniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.log_uniform(16, 4096);
    EXPECT_GE(v, 16u);
    EXPECT_LE(v, 4096u);
  }
}

TEST(Rng, Uniform01InHalfOpenUnit) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.7;
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(IntHistogram, PercentilesExact) {
  IntHistogram hist;
  for (std::uint64_t v = 1; v <= 100; ++v) hist.add(v);
  EXPECT_EQ(hist.percentile(0.5), 50u);
  EXPECT_EQ(hist.percentile(0.99), 99u);
  EXPECT_EQ(hist.percentile(1.0), 100u);
  EXPECT_EQ(hist.max_value(), 100u);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
}

TEST(IntHistogram, MergeAddsCounts) {
  IntHistogram a;
  IntHistogram b;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count_of(2), 2u);
}

TEST(Table, RendersAlignedColumns) {
  Table table("demo");
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table table("demo");
  table.set_header({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowArityMismatchRejected) {
  Table table("demo");
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.size(), workers);
    for (const std::size_t count : {0u, 1u, 2u, 64u}) {
      std::vector<std::atomic<int>> hits(count);
      const std::size_t ran =
          pool.parallel_for(count, [&](std::size_t i) { ++hits[i]; });
      EXPECT_LE(ran, count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers " << workers << " index " << i;
      }
    }
  }
}

TEST(ThreadPool, ZeroWorkersRunsEverythingOnTheCaller) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  EXPECT_EQ(pool.parallel_for(10, [&](std::size_t) {
              if (std::this_thread::get_id() != caller) ++elsewhere;
            }),
            10u);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPool, CallerFinishesWhileEveryWorkerIsBusy) {
  // Every worker is parked inside another thread's call, so the helpers
  // this call queues cannot start: the caller must run all 64 indices
  // itself and return without waiting for them.
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    pool.parallel_for(4, [&](std::size_t) {
      ++started;
      while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    });
  });
  while (started.load() < 4) std::this_thread::yield();  // 3 workers + blocker
  std::atomic<int> counter{0};
  EXPECT_EQ(pool.parallel_for(64, [&](std::size_t) { ++counter; }), 64u);
  EXPECT_EQ(counter.load(), 64);
  release.store(true, std::memory_order_release);
  blocker.join();
}

TEST(ThreadPool, LateHelpersDropTheirJobAfterTheCallReturned) {
  // Short calls return before some of their helpers wake; a late helper
  // must touch only the job state it shares, never the caller's frame (the
  // ASan lane runs this).
  ThreadPool pool(3);
  for (int call = 0; call < 1000; ++call) {
    std::vector<int> slots(4, 0);
    pool.parallel_for(slots.size(), [&](std::size_t i) { slots[i] = call; });
    for (const int value : slots) ASSERT_EQ(value, call);
  }
}

TEST(ThreadPool, FirstExceptionIsRethrownAfterEveryIndexRan) {
  std::atomic<int> entered{0};
  std::atomic<int> finished{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    ++entered;
    if (i == 0) throw std::runtime_error("index 0");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++finished;
  };
  ThreadPool pool(2);  // joined before fn and the counters go out of scope
  int entered_at_throw = -1;
  int finished_at_throw = -1;
  try {
    pool.parallel_for(16, fn);
  } catch (const std::runtime_error&) {
    entered_at_throw = entered.load();
    finished_at_throw = finished.load();
  }
  EXPECT_EQ(entered_at_throw, 16);
  EXPECT_EQ(finished_at_throw, 15);
}

TEST(Contracts, RequireThrowsContractViolation) {
  EXPECT_THROW(RS_REQUIRE(false, "boom"), ContractViolation);
  EXPECT_NO_THROW(RS_REQUIRE(true, "fine"));
}

TEST(Contracts, CheckThrowsInternalError) {
  EXPECT_THROW(RS_CHECK(false, "bug"), InternalError);
}

}  // namespace
}  // namespace reasched
