// Telemetry-tier tests (src/telemetry/, DESIGN.md §10): histogram bucket
// error vs the documented ≤3% bound, the empty-histogram contracts (both
// LatencyHistogram and the IntHistogram satellite fix), per-thread shard
// recording merged on scrape — also run under TSan in CI, where concurrent
// record/scrape/retire must be race-free — TraceRing wrap-around, the
// JSON surfaces, and the WAL's record counter.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_ring.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace reasched::telemetry {
namespace {

/// Every test runs against the process-global registry; scrub shared state
/// so tests stay order-independent.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    Registry::set_metrics_enabled(true);
  }
  void TearDown() override {
    Registry::set_metrics_enabled(false);
    Registry::global().reset();
  }
};

// ---------------------------------------------------------------- buckets --

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_mid(LatencyHistogram::bucket_of(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketErrorPropertyWithinDocumentedBound) {
  // The reported representative of any value's bucket must be within the
  // documented 3% relative error (the per-rounding bound is 2^-7 ≈ 0.8%;
  // the scrape's tick→ns re-bucketing compounds a second rounding).
  Rng rng(0xb13bde5);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t v = rng.log_uniform(1, std::uint64_t{1} << 39);
    const std::uint64_t mid =
        LatencyHistogram::bucket_mid(LatencyHistogram::bucket_of(v));
    const double rel = std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
                       static_cast<double>(v);
    ASSERT_LE(rel, 0.03) << "value " << v << " reported as " << mid;
  }
}

TEST(LatencyHistogramTest, BucketIndexIsMonotone) {
  std::uint32_t prev = 0;
  for (std::uint64_t v = 1; v < (1u << 20); v = v + 1 + v / 64) {
    const std::uint32_t idx = LatencyHistogram::bucket_of(v);
    ASSERT_GE(idx, prev) << "value " << v;
    prev = idx;
  }
}

TEST(LatencyHistogramTest, ClampsAtTop) {
  LatencyHistogram h;
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.max(), LatencyHistogram::bucket_mid(LatencyHistogram::kBuckets - 1));
}

TEST(LatencyHistogramTest, EmptyReturnsZeroEverywhere) {
  const LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(0.999), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramTest, PercentilesOrderedAndNearTruth) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  const std::uint64_t p50 = h.percentile(0.50);
  const std::uint64_t p99 = h.percentile(0.99);
  const std::uint64_t p999 = h.percentile(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, h.max());
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 5000.0 * 0.03);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 9900.0 * 0.03);
}

TEST(LatencyHistogramTest, MergeMatchesSingleStream) {
  Rng rng(42);
  LatencyHistogram a, b, all;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.log_uniform(1, 1u << 30);
    ((i % 2 == 0) ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_TRUE(a == all);
}

// The satellite fix: IntHistogram must scrape as zeros when empty instead
// of aborting (zero-request shards).
TEST(IntHistogramEmptyTest, PercentileAndMaxReturnZero) {
  const IntHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.percentile(0.99), 0u);
  EXPECT_EQ(h.max_value(), 0u);
}

// ------------------------------------------------------------- trace ring --

TEST(TraceRingTest, WrapAroundKeepsNewestOldestFirst) {
  TraceRing ring(8);  // already a power of two
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.push(TraceEvent{"e", i, 0, 'i'});
  }
  EXPECT_EQ(ring.pushed(), 20u);
  const std::vector<TraceEvent> events = ring.drain();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].ts_ticks, 12 + k);  // oldest surviving first
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(5);
  for (std::uint64_t i = 0; i < 100; ++i) ring.push(TraceEvent{"e", i, 0, 'i'});
  EXPECT_EQ(ring.drain().size(), 8u);
}

TEST(TraceRingTest, DrainBelowCapacityReturnsAll) {
  TraceRing ring(64);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(TraceEvent{"e", i, 0, 'i'});
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 10u);
  EXPECT_EQ(events.front().ts_ticks, 0u);
  EXPECT_EQ(events.back().ts_ticks, 9u);
}

// ----------------------------------------------------------- shard & merge --

TEST_F(TelemetryTest, CountersMergeAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  const Counter counter("test.merge.count");
  const Gauge gauge("test.merge.gauge");
  const Histogram hist("test.merge.hist", Registry::Unit::kCount);

  // Concurrent scraper: under TSan this proves record/scrape/retire are
  // race-free, not merely that the totals come out right.
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)Registry::global().snapshot();
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add(1);
        gauge.add(2);
        gauge.add(-1);
        hist.record(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();  // shards retire on thread exit
  stop.store(true);
  scraper.join();

  const Registry::Snapshot snap = Registry::global().snapshot();
  std::uint64_t count = 0;
  std::int64_t gauge_value = -1;
  std::uint64_t hist_total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.merge.count") count = value;
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.merge.gauge") gauge_value = value;
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "test.merge.hist") hist_total = h.hist.total();
  }
  EXPECT_EQ(count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge_value, static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist_total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(TelemetryTest, DisabledRecordSitesAreInvisible) {
  Registry::set_metrics_enabled(false);
  const Counter counter("test.disabled.count");
  counter.add(100);
  const Registry::Snapshot snap = Registry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.disabled.count") {
      EXPECT_EQ(value, 0u);
    }
  }
}

TEST_F(TelemetryTest, SpanFeedsHistogramAndTrace) {
  Registry::set_trace_enabled(true);
  const Histogram hist("test.span.hist", Registry::Unit::kTicks);
  for (int i = 0; i < 32; ++i) {
    Span span(hist, "test.span");
  }
  RS_TELEM_INSTANT("test.instant");
  const Registry::Snapshot snap = Registry::global().snapshot();
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "test.span.hist") continue;
    found = true;
    EXPECT_EQ(h.unit, Registry::Unit::kTicks);
    EXPECT_EQ(h.hist.total(), 32u);
  }
  EXPECT_TRUE(found);
  const std::string trace = Registry::global().trace_json();
  EXPECT_NE(trace.find("\"test.span\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.instant\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  Registry::set_trace_enabled(false);
}

TEST_F(TelemetryTest, SnapshotJsonCarriesTheLatencyBlock) {
  const Histogram hist("test.json.hist", Registry::Unit::kCount);
  for (std::uint64_t v = 1; v <= 100; ++v) hist.record(v);
  const std::string json = Registry::global().snapshot_json();
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"ns_per_tick\""), std::string::npos);
}

TEST_F(TelemetryTest, ResetZeroesButKeepsNames) {
  const Counter counter("test.reset.count");
  counter.add(7);
  Registry::global().reset();
  const Registry::Snapshot snap = Registry::global().snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.reset.count") {
      found = true;
      EXPECT_EQ(value, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, WalRecordsCountsEveryDurableRequest) {
  // wal.records is bumped once per flushed frame by the number of records
  // it carries, so the durable service's sequential path counts every
  // logged request exactly once.
  const auto wal_records = [] {
    for (const auto& [name, value] : Registry::global().snapshot().counters) {
      if (name == "wal.records") return value;
    }
    return std::uint64_t{0};
  };
  char tmpl[] = "/tmp/reasched-telem-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::uint64_t before = wal_records();
  constexpr std::uint64_t kJobs = 300;
  {
    ShardedScheduler::Options options;
    options.wal = durability::DurabilityPolicy{.dir = tmpl};
    ShardedScheduler durable(
        1, [] { return std::make_unique<ReservationScheduler>(); }, options);
    for (std::uint64_t i = 0; i < kJobs; ++i) {
      const Time start = static_cast<Time>(64 * i);
      durable.insert(JobId{i}, Window{start, start + 64});
    }
    for (std::uint64_t i = 0; i < kJobs; i += 2) durable.erase(JobId{i});
    durable.sync_wal();
  }
  EXPECT_EQ(wal_records() - before, kJobs + kJobs / 2);
  std::filesystem::remove_all(tmpl);
}

TEST_F(TelemetryTest, EnableIsTurnOnOnly) {
  Registry::set_metrics_enabled(false);
  TelemetryOptions on;
  on.enabled = true;
  enable(on);
  EXPECT_TRUE(Registry::metrics_enabled());
  enable(TelemetryOptions{});  // all-off options must not disable
  EXPECT_TRUE(Registry::metrics_enabled());
  TelemetryOptions trace;
  trace.trace = true;
  enable(trace);  // trace implies metrics
  EXPECT_TRUE(Registry::trace_enabled());
  EXPECT_TRUE(Registry::metrics_enabled());
  Registry::set_trace_enabled(false);
}

}  // namespace
}  // namespace reasched::telemetry
