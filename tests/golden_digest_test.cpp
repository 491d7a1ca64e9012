// Golden digests: committed fingerprints of what the scheduler *does* on
// fixed seeded traces — the oracle every optimisation of the hot path is
// held to. Theorem 1 of the paper is a statement about which jobs move, so
// each digest is a 64-bit FNV-1a over exactly the observable behaviour:
//
//   * the schedule — snapshot() assignments sorted by job id, taken after
//     every 512th request and once more at the end (never the persisted
//     snapshot file, whose bytes carry hash-table layout);
//   * every request's RequestStats (reallocations, migrations,
//     levels_touched, degraded, rebuilt);
//   * the WAL — under a fixed buffered policy, the raw log file bytes when
//     the trace is served one request at a time through ShardedScheduler's
//     sequential path (one machine included), or the decoded record stream
//     for the batched and ingest arms (frames are cut at batch boundaries,
//     which legitimately differ across ingest producer counts).
//
// Every arm of one trace must reproduce the same committed constant: every
// shard count (1/2/4/8), with and without service snapshots, every ingest
// producer count (1/2/4/8), and both build flavors (default and
// -DREASCHED_FORCE_SCALAR_PROBE=ON — CI runs this suite in each lane). A
// failing
// arm prints the digest it computed; after an *intended* behaviour change,
// re-recording is pasting that value over the constant.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "durability/snapshot.hpp"
#include "durability/wal.hpp"
#include "ingest/ingest_service.hpp"
#include "service/sharded_scheduler.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

// churn_trace(1234, 9000, 3000): one machine, partitioned n*-rebuilds.
constexpr std::uint64_t kSingleMachine = 0x98049f1bfe46b73e;
// The same trace with every migration flushed inside its boundary request
// (rebuild_batch = max, the stop-the-world pace).
constexpr std::uint64_t kSingleMachineStopTheWorld = 0x26d155c935b7d60d;
// churn_trace(77, 9000, 3000, 4) through the 4-machine §3 reduction, one
// request at a time.
constexpr std::uint64_t kMultiMachine = 0xce767e7ea1b460a6;
// churn_trace(9008, 4000, 1200, 8) through the sharded service with its
// WAL, served directly and through the ingest front end.
constexpr std::uint64_t kSharded = 0xdf5e53d14a090f8b;
// The fulfillment-cache stress trace: (5150, 4000, nested hotspots), 512
// active jobs on one machine.
constexpr std::uint64_t kFulfillment = 0x84e6ca7ac4660070;

constexpr std::size_t kSnapshotEvery = 512;

/// 64-bit FNV-1a over little-endian u64 words.
class Digest {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      state_ = (state_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(le, sizeof le);
  }
  void stats(const RequestStats& s) {
    u64(s.reallocations);
    u64(s.migrations);
    u64(s.levels_touched);
    u64(s.degraded);
    u64(s.rebuilt ? 1 : 0);
  }
  void schedule(const Schedule& schedule) {
    std::vector<std::pair<JobId, Placement>> sorted(schedule.assignments().begin(),
                                                    schedule.assignments().end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first.value < b.first.value; });
    u64(sorted.size());
    for (const auto& [job, placement] : sorted) {
      u64(job.value);
      u64(placement.machine);
      u64(static_cast<std::uint64_t>(placement.slot));
    }
  }
  void file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    const std::vector<char> data((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
    u64(data.size());
    bytes(data.data(), data.size());
  }
  void records(const std::vector<durability::WalRecord>& records) {
    u64(records.size());
    for (const durability::WalRecord& r : records) {
      u64(static_cast<std::uint64_t>(r.type));
      u64(r.csn);
      u64(r.job.value);
      u64(static_cast<std::uint64_t>(r.window.start));
      u64(static_cast<std::uint64_t>(r.window.end));
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 14695981039346656037ULL;
};

// Unique scratch directory per arm, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/reasched-golden-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    std::system(cmd.c_str());  // NOLINT: test scratch cleanup
  }
};

std::vector<Request> churn_trace(std::uint64_t seed, std::size_t requests,
                                 std::size_t target, unsigned machines = 1) {
  ChurnParams params;
  params.seed = seed;
  params.requests = requests;
  params.target_active = target;
  params.machines = machines;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

SchedulerOptions best_effort() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  return options;
}

/// Buffered, snapshot-free: the log bytes are then a function of the
/// request stream alone (a snapshot mid-frame would sync and cut it).
durability::DurabilityPolicy golden_policy(const std::string& dir) {
  durability::DurabilityPolicy policy;
  policy.dir = dir;
  policy.sync_every = 0;
  policy.snapshot_on_flip = false;
  policy.snapshot_every = 0;
  return policy;
}

void expect_digest(std::uint64_t got, std::uint64_t want, const std::string& arm) {
  EXPECT_EQ(got, want) << arm << ": computed digest 0x" << std::hex << got;
}

constexpr unsigned kShardedMachines = 8;

std::unique_ptr<ShardedScheduler> make_sharded(durability::DurabilityPolicy policy,
                                               unsigned shards,
                                               unsigned machines = kShardedMachines,
                                               SchedulerOptions machine_options = best_effort()) {
  ShardedScheduler::Options options;
  options.shards = shards;
  options.wal = std::move(policy);
  return std::make_unique<ShardedScheduler>(
      machines,
      [machine_options] { return std::make_unique<ReservationScheduler>(machine_options); },
      options);
}

/// The trace one request at a time through ShardedScheduler's sequential
/// path (the §3 reduction; on one machine, the single-machine scheduler
/// behind the durable front end) with the service's WAL. The WAL part is
/// the raw log file.
std::uint64_t sequential_digest(const std::vector<Request>& trace, unsigned machines,
                                const SchedulerOptions& options = best_effort()) {
  TempDir dir;
  Digest digest;
  {
    const auto scheduler = make_sharded(golden_policy(dir.path), 1, machines, options);
    std::size_t served = 0;
    for (const Request& r : trace) {
      digest.stats(r.kind == RequestKind::kInsert ? scheduler->insert(r.job, r.window)
                                                  : scheduler->erase(r.job));
      if (++served % kSnapshotEvery == 0) digest.schedule(scheduler->snapshot());
    }
    digest.schedule(scheduler->snapshot());
    scheduler->sync_wal();
  }
  digest.file(durability::wal_path(dir.path));
  return digest.value();
}

/// The WAL part of a sharded arm: the log's CSN-ordered request stream.
void mix_wal_records(Digest& digest, ShardedScheduler& scheduler, const std::string& dir) {
  scheduler.sync_wal();
  const durability::WalReadResult wal = durability::read_wal(durability::wal_path(dir));
  EXPECT_FALSE(wal.torn_tail);
  digest.records(wal.records);
}

/// The trace through ShardedScheduler::apply in 256-request batches (two
/// per digest period, so schedules are taken on batch boundaries). With
/// `service_snapshot_every` > 0 the service also writes its own snapshots,
/// which must change nothing the digest sees.
std::uint64_t sharded_digest(const std::vector<Request>& trace, unsigned shards,
                             std::uint64_t service_snapshot_every = 0) {
  static_assert(kSnapshotEvery % 256 == 0);
  TempDir dir;
  Digest digest;
  durability::DurabilityPolicy policy = golden_policy(dir.path);
  policy.snapshot_every = service_snapshot_every;
  const auto scheduler = make_sharded(policy, shards);
  for (std::size_t first = 0; first < trace.size(); first += 256) {
    const std::size_t len = std::min<std::size_t>(256, trace.size() - first);
    const BatchResult result = scheduler->apply({trace.data() + first, len});
    EXPECT_TRUE(result.all_served());
    for (const RequestStats& s : result.stats) digest.stats(s);
    if ((first + len) % kSnapshotEvery == 0) digest.schedule(scheduler->snapshot());
  }
  digest.schedule(scheduler->snapshot());
  mix_wal_records(digest, *scheduler, dir.path);
  EXPECT_EQ(durability::list_snapshots(dir.path).empty(), service_snapshot_every == 0);
  return digest.value();
}

/// The trace pushed through an IngestService from `producers` concurrent
/// threads (ticket = trace index, round-robin partition), one snapshot
/// period at a time: producers push the period's tickets, then drain()
/// settles it before the snapshot is taken.
std::uint64_t ingest_digest(const std::vector<Request>& trace, std::size_t producers) {
  TempDir dir;
  Digest digest;
  const auto scheduler = make_sharded(golden_policy(dir.path), 4);
  ingest::IngestOptions ingest_options;
  ingest_options.external_sequencing = true;
  ingest_options.record_stats = true;
  ingest_options.lanes = 4;
  ingest_options.lane_capacity = 256;
  ingest_options.max_batch = 128;
  ingest_options.batch_deadline_us = 100;
  ingest::IngestService service(*scheduler, ingest_options);
  for (std::size_t first = 0; first < trace.size(); first += kSnapshotEvery) {
    const std::size_t end = std::min(trace.size(), first + kSnapshotEvery);
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t i = first + p; i < end; i += producers) {
          service.push_sequenced(i, trace[i]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    service.drain();
    const std::vector<RequestStats>& applied = service.applied_stats();
    EXPECT_EQ(applied.size(), end);
    for (std::size_t i = first; i < end && i < applied.size(); ++i) {
      digest.stats(applied[i]);
    }
    if (end % kSnapshotEvery == 0) digest.schedule(scheduler->snapshot());
  }
  service.stop();
  EXPECT_TRUE(service.rejected_tickets().empty());
  digest.schedule(scheduler->snapshot());
  mix_wal_records(digest, *scheduler, dir.path);
  return digest.value();
}

TEST(GoldenDigest, SingleMachinePartitionedRebuild) {
  const auto trace = churn_trace(1234, 9'000, 3'000);
  expect_digest(sequential_digest(trace, 1), kSingleMachine, "sharded m=1");
}

TEST(GoldenDigest, SingleMachineStopTheWorldRebuild) {
  // rebuild_batch is also the flush cutoff: at its maximum every n*
  // change finishes its migration inside the boundary request.
  const auto trace = churn_trace(1234, 9'000, 3'000);
  SchedulerOptions options = best_effort();
  options.rebuild_batch = std::numeric_limits<std::size_t>::max();
  expect_digest(sequential_digest(trace, 1, options), kSingleMachineStopTheWorld,
                "rebuild_batch=max");
}

TEST(GoldenDigest, MultiMachine) {
  const auto trace = churn_trace(77, 9'000, 3'000, 4);
  expect_digest(sequential_digest(trace, 4), kMultiMachine, "default");
}

TEST(GoldenDigest, ShardedEveryShardCount) {
  const auto trace = churn_trace(9'008, 4'000, 1'200, kShardedMachines);
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    expect_digest(sharded_digest(trace, shards), kSharded,
                  "shards=" + std::to_string(shards));
    // Snapshots never change a schedule, a stat or a logged record.
    expect_digest(sharded_digest(trace, shards, 512), kSharded,
                  "shards=" + std::to_string(shards) + ", snapshot_every=512");
  }
}

TEST(GoldenDigest, IngestEveryProducerCount) {
  const auto trace = churn_trace(9'008, 4'000, 1'200, kShardedMachines);
  for (const std::size_t producers : {1u, 2u, 4u, 8u}) {
    expect_digest(ingest_digest(trace, producers), kSharded,
                  "producers=" + std::to_string(producers));
  }
}

TEST(GoldenDigest, FulfillmentCacheStress) {
  const auto trace = churn_trace(5150, 4'000, 512);
  expect_digest(sequential_digest(trace, 1), kFulfillment, "sharded m=1");
}

}  // namespace
}  // namespace reasched
