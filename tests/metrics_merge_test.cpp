// MetricsCollector::merge audit (ISSUE 7 satellite): merging per-shard
// collectors must reproduce the single-collector aggregate exactly — every
// counter, both RunningStats, both IntHistograms, and the new latency
// block — and a sharded run's per-shard-merged metrics must round-trip
// against the sequential twin's.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "metrics/collector.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

TEST(MetricsMergeTest, MergeMatchesSingleCollectorExactly) {
  Rng rng(0x5eedc0de);
  MetricsCollector all;
  std::array<MetricsCollector, 4> shards;
  for (int i = 0; i < 4000; ++i) {
    RequestStats stats;
    stats.reallocations = rng.uniform(0, 16);
    stats.migrations = rng.uniform(0, 2);
    stats.levels_touched = rng.uniform(0, 5);
    stats.degraded = rng.chance(0.1) ? 1 : 0;
    stats.rebuilt = rng.chance(0.02);
    const RequestKind kind =
        rng.chance(0.5) ? RequestKind::kInsert : RequestKind::kDelete;
    MetricsCollector& shard = shards[static_cast<std::size_t>(i) % shards.size()];
    all.add(kind, stats);
    shard.add(kind, stats);
    const std::uint64_t latency = rng.log_uniform(100, 1u << 24);
    all.add_latency_ns(latency);
    shard.add_latency_ns(latency);
    if (rng.chance(0.05)) {
      all.add_rejected();
      shard.add_rejected();
    }
  }

  MetricsCollector merged;
  for (const MetricsCollector& shard : shards) merged.merge(shard);

  EXPECT_EQ(merged.requests(), all.requests());
  EXPECT_EQ(merged.inserts(), all.inserts());
  EXPECT_EQ(merged.deletes(), all.deletes());
  EXPECT_EQ(merged.rejected(), all.rejected());
  EXPECT_EQ(merged.rebuilds(), all.rebuilds());
  EXPECT_EQ(merged.degraded(), all.degraded());
  // Welford merges in a different summation order than streaming adds;
  // equality is up to rounding, not bit-exact.
  EXPECT_NEAR(merged.amortized_reallocations(), all.amortized_reallocations(), 1e-9);
  EXPECT_NEAR(merged.steady_reallocations(), all.steady_reallocations(), 1e-9);
  EXPECT_EQ(merged.steady_max_reallocations(), all.steady_max_reallocations());
  EXPECT_EQ(merged.max_reallocations(), all.max_reallocations());
  EXPECT_EQ(merged.p99_reallocations(), all.p99_reallocations());
  EXPECT_EQ(merged.max_migrations(), all.max_migrations());
  EXPECT_EQ(merged.reallocation_hist().buckets(), all.reallocation_hist().buckets());
  EXPECT_EQ(merged.migration_hist().buckets(), all.migration_hist().buckets());
  // The new latency block must merge like everything else (histogram
  // equality is bucket-exact).
  EXPECT_TRUE(merged.latency_hist() == all.latency_hist());
  EXPECT_EQ(merged.latency_hist().total(), all.latency_hist().total());
}

TEST(MetricsMergeTest, MergeOfEmptiesStaysEmpty) {
  MetricsCollector a, b;
  a.merge(b);
  EXPECT_EQ(a.requests(), 0u);
  EXPECT_EQ(a.max_reallocations(), 0u);       // the satellite fix: no abort
  EXPECT_EQ(a.p99_reallocations(), 0u);
  EXPECT_EQ(a.latency_hist().percentile(0.999), 0u);
  EXPECT_EQ(a.latency_hist().max(), 0u);
}

TEST(MetricsMergeTest, ShardedRunRoundTripsAgainstSequentialTwin) {
  constexpr unsigned kMachines = 8;
  ChurnParams params;
  params.seed = 77;
  params.target_active = 256;
  params.requests = 4000;
  params.machines = kMachines;
  params.min_span = 64;
  params.max_span = 2048;
  params.placement = WindowPlacement::kUniform;
  const std::vector<Request> trace = make_churn_trace(params);

  SchedulerOptions inner;
  inner.overflow = OverflowPolicy::kBestEffort;
  const auto factory = [inner] {
    return std::make_unique<ReservationScheduler>(inner);
  };

  // Sequential twin: one collector, per-request path.
  ShardedScheduler sequential(kMachines, factory);
  SimOptions seq_options;
  seq_options.record_latency = true;
  const SimReport seq_report = replay_trace(sequential, trace, seq_options);

  // Sharded run: batched apply; per-request stats fanned out round-robin
  // into per-shard collectors, then merged — the scrape path a sharded
  // service uses.
  ShardedScheduler::Options service;
  service.shards = 4;
  ShardedScheduler sharded(kMachines, factory, service);
  std::array<MetricsCollector, 4> shard_collectors;
  SimOptions sharded_options;
  sharded_options.batch_size = 64;
  sharded_options.on_request = [&](std::size_t index, const Request& request,
                                   const RequestStats& stats) {
    shard_collectors[index % shard_collectors.size()].add(request.kind, stats);
  };
  const SimReport sharded_report = replay_trace(sharded, trace, sharded_options);

  MetricsCollector merged;
  for (const MetricsCollector& c : shard_collectors) merged.merge(c);

  // The sharded batch path is stat-identical to the sequential twin
  // (sharded_scheduler_test proves per-request equality); the merged
  // per-shard collectors must therefore agree with both the sharded run's
  // own collector and the sequential twin's.
  const MetricsCollector& twin = seq_report.metrics;
  const MetricsCollector& whole = sharded_report.metrics;
  for (const MetricsCollector* other : {&twin, &whole}) {
    EXPECT_EQ(merged.requests(), other->requests());
    EXPECT_EQ(merged.inserts(), other->inserts());
    EXPECT_EQ(merged.deletes(), other->deletes());
    EXPECT_EQ(merged.rebuilds(), other->rebuilds());
    EXPECT_EQ(merged.degraded(), other->degraded());
    EXPECT_EQ(merged.max_reallocations(), other->max_reallocations());
    EXPECT_EQ(merged.p99_reallocations(), other->p99_reallocations());
    EXPECT_EQ(merged.reallocation_hist().buckets(),
              other->reallocation_hist().buckets());
    EXPECT_EQ(merged.migration_hist().buckets(),
              other->migration_hist().buckets());
  }
  // Latency lives in the run's own collector (the hook feeds none): wall
  // clock is not comparable across runs, but the sample counts are pinned —
  // one per request sequentially, none here in the sharded hook.
  EXPECT_EQ(twin.latency_hist().total(), twin.requests());
  EXPECT_EQ(merged.latency_hist().total(), 0u);
}

}  // namespace
}  // namespace reasched
