#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "telemetry/registry.hpp"
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
  EXPECT_THROW(floor_log2(0), ContractViolation);
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

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

/// Submits a stealable blocker homed on `home` that runs `hold`, and
/// returns once it has started — it can no longer be stolen, and tasks
/// submitted afterwards queue on the home deque behind it.
std::future<void> block_worker(ShardedThreadPool& pool, std::size_t home,
                               std::function<void()> hold) {
  auto started = std::make_shared<std::atomic<bool>>(false);
  auto blocker = pool.submit_stealable(home, [started, hold = std::move(hold)] {
    started->store(true, std::memory_order_release);
    hold();
  });
  while (!started->load(std::memory_order_acquire)) std::this_thread::yield();
  return blocker;
}

/// A blocker body that spins until `release` is set.
std::function<void()> until(const std::atomic<bool>& release) {
  return [&release] {
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  };
}

TEST(ShardedThreadPool, WorkersRunIndependently) {
  ShardedThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (std::size_t w = 0; w < 4; ++w) {
    for (int i = 0; i < 25; ++i) {
      futures.push_back(pool.submit_stealable(w, [&counter] { ++counter; }));
    }
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ShardedThreadPool, ZeroWorkersIsValid) {
  ShardedThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_THROW(pool.submit_stealable(0, [] {}), ContractViolation);
  EXPECT_FALSE(pool.try_run_stealable());
}

TEST(ShardedThreadPool, StealableTasksAllRunExactlyOnce) {
  ShardedThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  // Everything homed on worker 0: completion of all 64 with a nonzero
  // steals() would prove migration, but even without steals the contract
  // is exactly-once execution.
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit_stealable(0, [&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ShardedThreadPool, IdleWorkersStealFromALoadedHome) {
  ShardedThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  // A slow blocker occupies one worker while the backlog queues on the
  // home deque; the idle workers must drain it — the futures cannot all
  // complete before the sleeper otherwise, so the time bound is the proof.
  const auto t0 = std::chrono::steady_clock::now();
  auto blocker = block_worker(pool, 0, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit_stealable(0, [&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++counter;
    }));
  }
  for (auto& f : futures) f.get();
  const auto stolen_done = std::chrono::steady_clock::now() - t0;
  blocker.get();
  EXPECT_EQ(counter.load(), 32);
  EXPECT_GE(pool.steals(), 1u);
  EXPECT_LT(stolen_done, std::chrono::milliseconds(200))
      << "stealable backlog waited for the busy home worker";
}

TEST(ShardedThreadPool, CallerCanRunStealableWork) {
  ShardedThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  // Block the only worker so the caller is the sole source of progress.
  std::atomic<bool> release{false};
  auto blocker = block_worker(pool, 0, until(release));
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit_stealable(0, [&counter] { ++counter; }));
  }
  while (counter.load() < 8) {
    if (!pool.try_run_stealable()) std::this_thread::yield();
  }
  EXPECT_FALSE(pool.try_run_stealable());  // queue is empty now
  release.store(true, std::memory_order_release);
  blocker.get();
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 8);
  EXPECT_GE(pool.steals(), 8u);
}

#if RS_TELEM_COMPILED
std::int64_t gauge_value(const std::string& name) {
  const telemetry::Registry::Snapshot snap = telemetry::Registry::global().snapshot();
  for (const auto& [gauge, value] : snap.gauges) {
    if (gauge == name) return value;
  }
  return 0;
}

TEST(ShardedThreadPool, QueueDepthGaugeTracksTheHomeDeque) {
  // "svc.queue.depth.<k>" counts the tasks waiting in worker k's deque:
  // +1 on submit, -1 when the owner or a thief pops. Measured as a delta —
  // the gauge is process-wide and earlier pools share the name.
  const bool was_on = telemetry::Registry::metrics_enabled();
  telemetry::Registry::set_metrics_enabled(true);
  ShardedThreadPool pool(1);
  const std::int64_t base = gauge_value("svc.queue.depth.0");
  std::atomic<bool> release{false};
  auto blocker = block_worker(pool, 0, until(release));
  EXPECT_EQ(gauge_value("svc.queue.depth.0"), base);  // running, not waiting
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(pool.submit_stealable(0, [] {}));
  EXPECT_EQ(gauge_value("svc.queue.depth.0"), base + 8);
  while (pool.try_run_stealable()) {
  }
  EXPECT_EQ(gauge_value("svc.queue.depth.0"), base);
  release.store(true, std::memory_order_release);
  blocker.get();
  for (auto& f : futures) f.get();
  telemetry::Registry::set_metrics_enabled(was_on);
}
#endif

TEST(Contracts, RequireThrowsContractViolation) {
  EXPECT_THROW(RS_REQUIRE(false, "boom"), ContractViolation);
  EXPECT_NO_THROW(RS_REQUIRE(true, "fine"));
}

TEST(Contracts, CheckThrowsInternalError) {
  EXPECT_THROW(RS_CHECK(false, "bug"), InternalError);
}

}  // namespace
}  // namespace reasched
