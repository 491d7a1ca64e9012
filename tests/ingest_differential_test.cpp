// Ingestion differential suite: requests pushed from 1/2/4/8 concurrent
// producer threads through the lock-free front end
// (ingest/ingest_service.hpp) must produce schedules, per-request stats,
// and audit results *byte-identical* to the same requests applied as
// sequential batches by a single caller — the property that keeps the
// SPAA'13 cost model meaningful under concurrent load (ISSUE 8 /
// DESIGN.md §11). External sequencing assigns each request its trace index
// as ticket, so whatever interleaving the producers and the ring produce,
// the consumer's reorder stage must reconstruct exactly the trace order;
// any lost, duplicated, or mis-ordered request shows up as a stats or
// snapshot mismatch. Covers the clean path (reservation pipeline, no
// rejections), the rejection path (naive scheduler, infeasible inserts —
// ingest batching must reproduce the same rejected set regardless of where
// its adaptive batch boundaries fall), a four-thread apply fan-out against
// a single shard that runs every task on the caller, and internal ticketing
// with one producer (where claim order IS trace order).
//
// ctest label: slow (CMakeLists.txt).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/naive_scheduler.hpp"
#include "core/reservation_scheduler.hpp"
#include "ingest/ingest_service.hpp"
#include "service/sharded_scheduler.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

ShardedScheduler::Factory reservation_factory() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  return [options] { return std::make_unique<ReservationScheduler>(options); };
}

ShardedScheduler::Factory naive_factory() {
  return [] { return std::make_unique<NaiveScheduler>(); };
}

std::vector<Request> churn_trace(std::uint64_t seed, unsigned machines,
                                 std::size_t requests) {
  ChurnParams params;
  params.seed = seed;
  params.target_active = 256;
  params.requests = requests;
  params.machines = machines;
  params.min_span = 64;
  params.max_span = 2048;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

void expect_same_stats(const RequestStats& a, const RequestStats& b, std::size_t at) {
  EXPECT_EQ(a.reallocations, b.reallocations) << "request " << at;
  EXPECT_EQ(a.migrations, b.migrations) << "request " << at;
  EXPECT_EQ(a.levels_touched, b.levels_touched) << "request " << at;
  EXPECT_EQ(a.degraded, b.degraded) << "request " << at;
  EXPECT_EQ(a.rebuilt, b.rebuilt) << "request " << at;
}

void expect_same_schedule(const Schedule& want, const Schedule& got) {
  ASSERT_EQ(want.machines(), got.machines());
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [job, placement] : want.assignments()) {
    const auto other = got.find(job);
    ASSERT_TRUE(other.has_value()) << "job " << job.value << " missing";
    EXPECT_EQ(other->machine, placement.machine) << "job " << job.value;
    EXPECT_EQ(other->slot, placement.slot) << "job " << job.value;
  }
}

/// Single-caller reference: the whole trace through apply() in fixed
/// sequential batches. Returns per-request stats; expects no rejections.
std::vector<RequestStats> batched_reference(ShardedScheduler& scheduler,
                                            const std::vector<Request>& trace,
                                            std::size_t batch_size) {
  std::vector<RequestStats> stats;
  stats.reserve(trace.size());
  for (std::size_t first = 0; first < trace.size(); first += batch_size) {
    const std::size_t count = std::min(batch_size, trace.size() - first);
    const BatchResult result =
        scheduler.apply(std::span<const Request>(trace).subspan(first, count));
    EXPECT_TRUE(result.all_served());
    stats.insert(stats.end(), result.stats.begin(), result.stats.end());
  }
  return stats;
}

/// Pushes `trace` through an IngestService from `producers` concurrent
/// threads in round-robin partition, with seeded-random yields so every
/// seed exercises a different arrival interleaving. External sequencing:
/// ticket = trace index. Returns after drain + stop (results readable).
void concurrent_ingest(ingest::IngestService& service,
                       const std::vector<Request>& trace, std::size_t producers,
                       std::uint64_t seed) {
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(seed ^ (0xbf58476d1ce4e5b9ULL * (p + 1)));
      for (std::size_t i = p; i < trace.size(); i += producers) {
        service.push_sequenced(i, trace[i]);
        if (rng.chance(0.03)) std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  service.drain();
  service.stop();
}

ingest::IngestOptions differential_options() {
  ingest::IngestOptions options;
  options.external_sequencing = true;
  options.record_stats = true;
  options.lanes = 4;
  options.lane_capacity = 256;  // small: wrap-around + backpressure in play
  options.max_batch = 128;
  options.batch_deadline_us = 100;
  return options;
}

// The acceptance matrix: 1/2/4/8 producers against a single-caller batched
// reference, same trace, same scheduler configuration.
TEST(IngestDifferential, MatchesSequentialBatchesAtEveryProducerCount) {
  const auto trace = churn_trace(31, 8, 3000);

  ShardedScheduler::Options scheduler_options;
  scheduler_options.shards = 4;
  ShardedScheduler reference(8, reservation_factory(), scheduler_options);
  const auto want = batched_reference(reference, trace, 64);
  reference.audit_balance();

  for (const std::size_t producers : {1u, 2u, 4u, 8u}) {
    ShardedScheduler sharded(8, reservation_factory(), scheduler_options);
    ingest::IngestService service(sharded, differential_options());
    concurrent_ingest(service, trace, producers, 1000 + producers);

    const auto& got = service.applied_stats();
    ASSERT_EQ(got.size(), want.size()) << producers << " producers";
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_stats(want[i], got[i], i);
    }
    EXPECT_TRUE(service.rejected_tickets().empty());
    expect_same_schedule(reference.snapshot(), sharded.snapshot());
    EXPECT_EQ(sharded.active_jobs(), reference.active_jobs());
    sharded.audit_balance();
    EXPECT_GT(sharded.audit_balance_incremental(), 0u);

    const ingest::IngestStats stats = service.stats();
    EXPECT_EQ(stats.admitted, trace.size());
    EXPECT_EQ(stats.applied, trace.size());
    EXPECT_EQ(stats.scheduler_rejected, 0u);
    EXPECT_EQ(stats.rejected_depth + stats.rejected_latency, 0u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.max_batch, 128u);
  }
}

// The shard count must be invisible in results: same trace, four apply
// threads vs one shard that runs every task inline on the caller (no pool
// workers, so steal_count() stays 0), byte-identical stats and schedules.
TEST(IngestDifferential, ShardCountIsInvisibleInResults) {
  const auto trace = churn_trace(47, 8, 2500);

  ShardedScheduler::Options inline_options;
  inline_options.shards = 1;
  ShardedScheduler inline_caller(8, reservation_factory(), inline_options);
  const auto want = batched_reference(inline_caller, trace, 64);
  EXPECT_EQ(inline_caller.steal_count(), 0u);

  ShardedScheduler::Options stealing_options;
  stealing_options.shards = 4;
  ShardedScheduler stealing(8, reservation_factory(), stealing_options);
  const auto got = batched_reference(stealing, trace, 64);
  // steal_count() counts the apply tasks the caller ran: at most one per
  // machine per batch (churn ids are fresh, so no batch is cut).
  const std::size_t batches = (trace.size() + 63) / 64;
  EXPECT_LE(stealing.steal_count(), batches * stealing.machines());

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_stats(want[i], got[i], i);
  }
  expect_same_schedule(inline_caller.snapshot(), stealing.snapshot());
  inline_caller.audit_balance();
  stealing.audit_balance();

  // And through the full ingest front end, concurrently.
  ShardedScheduler stealing_ingest(8, reservation_factory(), stealing_options);
  ingest::IngestService service(stealing_ingest, differential_options());
  concurrent_ingest(service, trace, 4, 77);
  ASSERT_EQ(service.applied_stats().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_stats(want[i], service.applied_stats()[i], i);
  }
  expect_same_schedule(inline_caller.snapshot(), stealing_ingest.snapshot());
  stealing_ingest.audit_balance();
}

// Internal ticketing with a single producer: claim order is push order is
// trace order, so results must match the external-sequencing run exactly.
TEST(IngestDifferential, InternalTicketsSingleProducerMatchesReference) {
  const auto trace = churn_trace(59, 4, 1500);

  ShardedScheduler::Options scheduler_options;
  scheduler_options.shards = 2;
  ShardedScheduler reference(4, reservation_factory(), scheduler_options);
  const auto want = batched_reference(reference, trace, 64);

  ShardedScheduler sharded(4, reservation_factory(), scheduler_options);
  ingest::IngestOptions options = differential_options();
  options.external_sequencing = false;
  ingest::IngestService service(sharded, options);
  for (const Request& request : trace) {
    ASSERT_EQ(service.push(request), ingest::Admit::kAdmitted);
  }
  service.drain();
  service.stop();

  ASSERT_EQ(service.applied_stats().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_stats(want[i], service.applied_stats()[i], i);
  }
  expect_same_schedule(reference.snapshot(), sharded.snapshot());
}

// Rejection path: infeasible inserts (naive scheduler, overfull window)
// must be rejected with exact per-ticket attribution, and the rejected set
// must not depend on where the adaptive batcher's boundaries fall — the
// same jobs are rejected whether the trace arrives as one batch or as
// whatever splits 4 concurrent producers induce.
TEST(IngestDifferential, SchedulerRejectionsAreTicketExact) {
  // Window [0,4) on one machine offers 4 slots; inserts 5..8 are
  // infeasible no matter how the batches split.
  std::vector<Request> trace;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    trace.push_back(Request::insert(JobId{id}, 0, 4));
  }

  ShardedScheduler reference(1, naive_factory());
  const BatchResult want = reference.apply(trace);
  ASSERT_EQ(want.rejected.size(), 4u);

  ShardedScheduler sharded(1, naive_factory());
  ingest::IngestOptions options = differential_options();
  options.max_batch = 3;  // force several batch boundaries inside the trace
  ingest::IngestService service(sharded, options);
  concurrent_ingest(service, trace, 4, 13);

  ASSERT_EQ(service.applied_stats().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    expect_same_stats(want.stats[i], service.applied_stats()[i], i);
  }
  std::vector<std::uint64_t> want_rejected(want.rejected.begin(), want.rejected.end());
  EXPECT_EQ(service.rejected_tickets(), want_rejected);
  EXPECT_EQ(service.stats().scheduler_rejected, 4u);
  expect_same_schedule(reference.snapshot(), sharded.snapshot());
}

}  // namespace
}  // namespace reasched
