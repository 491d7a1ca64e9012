// Durability tier (DESIGN.md §9): WAL framing + checksums, snapshot
// round-trips, recovery differentials of the durable front end
// (ShardedScheduler with a WAL, one machine and several), graceful
// degradation on corrupt or missing durable state, the snapshot decoder
// on untrusted bytes, and the audit engine's post-recovery reseed.
// Kill-at-random-point process crashes live in crash_recovery_test.cpp;
// this suite covers everything reachable without dying.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "durability/recovery.hpp"
#include "durability/scheduler_persist.hpp"
#include "durability/snapshot.hpp"
#include "durability/wal.hpp"
#include "schedule/validator.hpp"
#include "service/reallocating_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/driver.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/trace_io.hpp"

namespace reasched {
namespace {

using durability::DurabilityPolicy;
using durability::WalReadResult;
using durability::WalRecord;
using durability::WalWriter;

// Unique scratch directory per test, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/reasched-dur-XXXXXX";
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
                                 std::size_t target = 512) {
  ChurnParams params;
  params.seed = seed;
  params.requests = requests;
  params.target_active = target;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

SchedulerOptions base_options() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.rebuild_batch = 32;  // migrations genuinely span requests
  return options;
}

RequestStats serve(IReallocScheduler& s, const Request& r) {
  return r.kind == RequestKind::kInsert ? s.insert(r.job, r.window) : s.erase(r.job);
}

ShardedScheduler::Options wal_options(const DurabilityPolicy& policy, unsigned shards = 1) {
  ShardedScheduler::Options options;
  options.shards = shards;
  options.wal = policy;
  return options;
}

/// The durable front end: a ShardedScheduler with a WAL. The factory keeps
/// every machine it builds; once construction returns, the last
/// `machines` of them are the service's (recovery builds a fresh set per
/// snapshot attempt), so tests can audit the machines themselves.
struct DurableService {
  std::vector<ReservationScheduler*> built;
  ShardedScheduler service;

  DurableService(const DurabilityPolicy& policy, const SchedulerOptions& options,
                 unsigned machines = 1, unsigned shards = 1)
      : service(machines,
                [this, options] {
                  auto machine = std::make_unique<ReservationScheduler>(options);
                  built.push_back(machine.get());
                  return machine;
                },
                wal_options(policy, shards)) {}

  ReservationScheduler& machine(unsigned index = 0) {
    return *built[built.size() - service.machines() + index];
  }
};

void expect_identical_schedules(const Schedule& sa, const Schedule& sb,
                                const char* where) {
  ASSERT_EQ(sa.size(), sb.size()) << where;
  for (const auto& [id, placement] : sa.assignments()) {
    const auto other = sb.find(id);
    ASSERT_TRUE(other.has_value()) << where << ": job " << id.value;
    EXPECT_EQ(placement.machine, other->machine) << where << ": job " << id.value;
    EXPECT_EQ(placement.slot, other->slot) << where << ": job " << id.value;
  }
}

// ------------------------------------------------------------------ crc32c

TEST(Crc32c, KnownVector) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4).
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  std::uint32_t chunked = 0;
  for (std::size_t split = 1; split < data.size(); ++split) {
    chunked = crc32c_update(0, data.data(), split);
    chunked = crc32c_update(chunked, data.data() + split, data.size() - split);
    EXPECT_EQ(chunked, whole) << "split " << split;
  }
  EXPECT_NE(crc32c(data.data(), data.size() - 1), whole);
}

// --------------------------------------------------------------------- WAL

std::vector<WalRecord> sample_records(std::size_t count) {
  std::vector<WalRecord> records;
  for (std::size_t i = 1; i <= count; ++i) {
    if (i % 3 == 0) {
      records.push_back(WalRecord::erase(i, JobId{i / 3}));
    } else {
      records.push_back(WalRecord::insert(
          i, JobId{i}, Window{static_cast<Time>(i * 64), static_cast<Time>(i * 64 + 64)}));
    }
  }
  return records;
}

TEST(Wal, RoundTripAcrossFramesAndReopen) {
  TempDir dir;
  const std::string path = durability::wal_path(dir.path);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 128;  // force many frames
  policy.sync_every = 2;

  const std::vector<WalRecord> records = sample_records(100);
  {
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 0; i < 60; ++i) writer.append(records[i]);
    writer.sync();
  }
  {
    // Append more after a clean close — the reader sees one stream.
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 60; i < records.size(); ++i) writer.append(records[i]);
    EXPECT_GE(writer.stats().frames, 2u);
    EXPECT_GE(writer.stats().syncs, 1u);
  }
  const WalReadResult result = durability::read_wal(path);
  EXPECT_FALSE(result.missing);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(result.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(result.records[i], records[i]) << "record " << i;
  }
}

TEST(Wal, TornTailIsTruncatedAndAppendResumes) {
  TempDir dir;
  const std::string path = durability::wal_path(dir.path);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 64;

  const std::vector<WalRecord> records = sample_records(40);
  {
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 0; i < 20; ++i) writer.append(records[i]);
  }
  // Simulate a torn write: a frame header promising more payload than the
  // file holds.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    const char garbage[] = "\x40\x00\x00\x00\xde\xad\xbe\xef half a frame";
    torn.write(garbage, sizeof(garbage) - 1);
  }
  WalReadResult result = durability::read_wal(path);
  EXPECT_TRUE(result.torn_tail);
  ASSERT_EQ(result.records.size(), 20u);

  // Truncate-at-bad-checksum, then appending resumes cleanly.
  durability::truncate_wal(path, result.valid_end);
  {
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 20; i < records.size(); ++i) writer.append(records[i]);
  }
  result = durability::read_wal(path);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(result.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(result.records[i], records[i]) << "record " << i;
  }
}

TEST(Wal, CorruptPayloadByteStopsAtThatFrame) {
  TempDir dir;
  const std::string path = durability::wal_path(dir.path);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 64;
  {
    WalWriter writer;
    writer.open(path, policy);
    for (const WalRecord& record : sample_records(40)) writer.append(record);
  }
  const WalReadResult intact = durability::read_wal(path);
  ASSERT_FALSE(intact.torn_tail);
  ASSERT_EQ(intact.records.size(), 40u);

  // Flip one byte two thirds in: every frame before it survives, the rest
  // is reported as a tear — never a crash, never garbage records.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekp(size * 2 / 3);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(size * 2 / 3);
    byte = static_cast<char>(byte ^ 0x01);
    file.write(&byte, 1);
  }
  const WalReadResult result = durability::read_wal(path);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_LT(result.records.size(), 40u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i], intact.records[i]);
  }
}

TEST(Wal, ChecksummedMalformedRecordDropsItsWholeFrame) {
  // A frame whose checksum holds but whose last record does not decode is
  // a tear at the frame's start: none of its records survive, not even the
  // ones before the bad record.
  TempDir dir;
  const std::string path = durability::wal_path(dir.path);
  const std::vector<WalRecord> records = sample_records(4);  // ..., erase, insert
  {
    WalWriter writer;
    writer.open(path, DurabilityPolicy{.dir = dir.path});
    writer.append(records[0]);
    writer.append(records[1]);
    writer.flush();  // frame 1: records 0-1; frame 2: records 2-3
    writer.append(records[2]);
    writer.append(records[3]);
  }
  std::vector<unsigned char> bytes;
  {
    std::ifstream file(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(file), {});
  }
  const auto u32_at = [&](std::size_t at) {
    return static_cast<std::uint32_t>(bytes[at] | bytes[at + 1] << 8 | bytes[at + 2] << 16 |
                                      bytes[at + 3] << 24);
  };
  constexpr std::size_t kFileHeader = 16;
  constexpr std::size_t kInsertRecord = 33;
  const std::size_t frame2 = kFileHeader + 8 + u32_at(kFileHeader);
  const std::size_t payload = frame2 + 8;
  ASSERT_EQ(payload + u32_at(frame2), bytes.size());
  bytes[bytes.size() - kInsertRecord] = 0x7f;  // the last record's type byte
  const std::uint32_t crc = crc32c(bytes.data() + payload, bytes.size() - payload);
  for (int k = 0; k < 4; ++k) bytes[frame2 + 4 + k] = static_cast<unsigned char>(crc >> 8 * k);
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }
  const WalReadResult result = durability::read_wal(path);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.valid_end, frame2);
  EXPECT_EQ(result.records, std::vector<WalRecord>(records.begin(), records.begin() + 2));
}

TEST(Wal, MissingFileAndForeignHeader) {
  TempDir dir;
  const WalReadResult missing = durability::read_wal(dir.path + "/nope.log");
  EXPECT_TRUE(missing.missing);
  EXPECT_TRUE(missing.records.empty());

  const std::string foreign = dir.path + "/foreign.log";
  {
    std::ofstream file(foreign, std::ios::binary);
    file << "definitely not a WAL file, much longer than a header";
  }
  EXPECT_THROW(durability::read_wal(foreign), durability::CorruptInput);
  WalWriter writer;
  EXPECT_THROW(writer.open(foreign, DurabilityPolicy{.dir = dir.path}),
               durability::CorruptInput);
}

// --------------------------------------------------------------- snapshots

// One machine's SchedulerPersist image as a snapshot payload.
void write_machine_snapshot(const std::string& dir, std::uint64_t csn,
                            const ReservationScheduler& s, const DurabilityPolicy& policy) {
  durability::write_snapshot(
      dir, csn,
      [&s](durability::ByteSink& out) { durability::SchedulerPersist::save(s, out); },
      policy);
}

bool load_machine_snapshot(const std::string& path, ReservationScheduler& s) {
  return durability::load_snapshot(
      path, [&s](durability::ByteSource& in) { durability::SchedulerPersist::load(s, in); });
}

void expect_same_stats(const RequestStats& a, const RequestStats& b, const std::string& where) {
  EXPECT_EQ(a.reallocations, b.reallocations) << where;
  EXPECT_EQ(a.migrations, b.migrations) << where;
  EXPECT_EQ(a.levels_touched, b.levels_touched) << where;
  EXPECT_EQ(a.degraded, b.degraded) << where;
  EXPECT_EQ(a.rebuilt, b.rebuilt) << where;
}

TEST(Snapshot, RoundTripIsByteIdenticalAndContinuesInLockstep) {
  // An image stores each hash table's entries, not its memory, so a loaded
  // scheduler's tables have layouts of their own: other capacities, no
  // tombstones, no rehash in flight. Nothing the scheduler decides may
  // depend on that. Snapshots are cut at every 250th request from 500 on
  // (at the first quiescent point there); on this trace the job and
  // occupancy tables hold tombstones at nearly every cut, and the job
  // table is mid-rehash at one. Each loaded copy then serves the rest of
  // the trace beside the original.
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(41, 4'000);
  DurabilityPolicy policy;
  policy.dir = dir.path;

  ReservationScheduler original(options);
  std::vector<std::pair<std::size_t, std::unique_ptr<ReservationScheduler>>> copies;
  const auto expect_copies_match = [&](const std::string& when) {
    for (const auto& [cut, copy] : copies) {
      const std::string where = when + ", copy cut at " + std::to_string(cut);
      expect_identical_schedules(original.snapshot(), copy->snapshot(), where.c_str());
      EXPECT_EQ(original.n_star(), copy->n_star()) << where;
      EXPECT_EQ(original.parked_jobs(), copy->parked_jobs()) << where;
      EXPECT_EQ(original.active_jobs(), copy->active_jobs()) << where;
    }
  };
  std::size_t next_cut = 500;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RequestStats expected = serve(original, trace[i]);
    for (const auto& [cut, copy] : copies) {
      expect_same_stats(expected, serve(*copy, trace[i]),
                        "request " + std::to_string(i) + ", copy cut at " +
                            std::to_string(cut));
    }
    if (i + 1 < next_cut || original.rebuild_in_flight()) continue;
    write_machine_snapshot(dir.path, i + 1, original, policy);
    auto copy = std::make_unique<ReservationScheduler>(options);
    ASSERT_TRUE(load_machine_snapshot(durability::snapshot_path(dir.path, i + 1), *copy))
        << "cut at " << i + 1;
    copy->audit();  // full invariant sweep on the loaded state
    copies.emplace_back(i + 1, std::move(copy));
    expect_copies_match("after request " + std::to_string(i));
    next_cut += 250;
  }
  ASSERT_GE(copies.size(), 12u);
  expect_copies_match("end of trace");
  for (const auto& [cut, copy] : copies) copy->audit();
}

TEST(Snapshot, CorruptionIsDetectedNotTrusted) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  ReservationScheduler s(options);
  for (const Request& r : churn_trace(7, 800)) serve(s, r);
  ASSERT_FALSE(s.rebuild_in_flight());
  DurabilityPolicy policy;
  policy.dir = dir.path;
  write_machine_snapshot(dir.path, 5, s, policy);
  const std::string path = durability::snapshot_path(dir.path, 5);

  // Bit flip in the middle: CRC catches it.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekp(size / 2);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(size / 2);
    byte = static_cast<char>(byte ^ 0x10);
    file.write(&byte, 1);
  }
  {
    ReservationScheduler fresh(options);
    EXPECT_FALSE(load_machine_snapshot(path, fresh));
  }

  // Truncation (a crash mid-rename of a future overwrite, disk trouble):
  // the length/CRC trailer no longer matches.
  write_machine_snapshot(dir.path, 5, s, policy);  // rewrite intact
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  }
  {
    ReservationScheduler fresh(options);
    EXPECT_FALSE(load_machine_snapshot(path, fresh));
  }

  // Missing file.
  {
    ReservationScheduler fresh(options);
    EXPECT_FALSE(load_machine_snapshot(dir.path + "/snap-99.snap", fresh));
  }
}

TEST(Snapshot, OptionsFingerprintMismatchRefusesToLoad) {
  TempDir dir;
  SchedulerOptions options = base_options();
  ReservationScheduler s(options);
  for (const Request& r : churn_trace(9, 400)) serve(s, r);
  ASSERT_FALSE(s.rebuild_in_flight());
  DurabilityPolicy policy;
  policy.dir = dir.path;
  write_machine_snapshot(dir.path, 1, s, policy);

  SchedulerOptions other = options;
  other.gamma = 16;  // placement-shaping knob → incompatible state
  ReservationScheduler fresh(other);
  EXPECT_FALSE(
      load_machine_snapshot(durability::snapshot_path(dir.path, 1), fresh));
}

TEST(Snapshot, ListAndPruneKeepNewest) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  ReservationScheduler s(options);
  for (const Request& r : churn_trace(3, 300)) serve(s, r);
  ASSERT_FALSE(s.rebuild_in_flight());
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.keep_snapshots = 2;
  for (std::uint64_t csn : {10u, 20u, 30u, 40u}) {
    write_machine_snapshot(dir.path, csn, s, policy);
  }
  const std::vector<std::uint64_t> kept = durability::list_snapshots(dir.path);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 40u);
  EXPECT_EQ(kept[1], 30u);
}

// ---------------------------------------------------------------- recovery
//
// The single-machine cases run the durable front end on one machine: the
// m = 1 case of the §3 reduction.

TEST(Recovery, ColdStartOnFreshDirectory) {
  TempDir dir;
  DurabilityPolicy policy;
  policy.dir = dir.path + "/does/not/exist/yet";
  DurableService durable(policy, base_options());
  EXPECT_TRUE(durable.service.recovery_report().cold_start());
  EXPECT_EQ(durable.service.csn(), 0u);
  EXPECT_EQ(durable.service.active_jobs(), 0u);
}

TEST(Recovery, WalOnlyReplayMatchesTwin) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(11, 2'000);
  DurabilityPolicy policy;
  policy.dir = dir.path;  // no snapshots by default: pure WAL replay
  {
    DurableService durable(policy, options);
    for (const Request& r : trace) serve(durable.service, r);
    durable.service.sync_wal();
    EXPECT_EQ(durable.service.csn(), trace.size());
  }
  EXPECT_TRUE(durability::list_snapshots(dir.path).empty());
  DurableService recovered(policy, options);
  EXPECT_EQ(recovered.service.recovery_report().replayed, trace.size());
  EXPECT_EQ(recovered.service.csn(), trace.size());

  ReservationScheduler twin(options);
  for (const Request& r : trace) serve(twin, r);
  expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(), "wal-only");
  recovered.machine().audit();
}

TEST(Recovery, SnapshotPlusSuffixMatchesTwinAndContinues) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(13, 6'000, 768);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 1024;
  policy.snapshot_on_flip = true;
  {
    DurableService durable(policy, options);
    for (const Request& r : trace) serve(durable.service, r);
    durable.service.sync_wal();
  }
  // Churn at this scale doubles n* several times; at least one flip
  // snapshot must have fired, so recovery replays a proper suffix.
  EXPECT_FALSE(durability::list_snapshots(dir.path).empty());
  DurableService recovered(policy, options);
  EXPECT_GT(recovered.service.recovery_report().snapshot_csn, 0u);
  EXPECT_LT(recovered.service.recovery_report().replayed, trace.size());
  EXPECT_EQ(recovered.service.csn(), trace.size());

  ReservationScheduler twin(options);
  for (const Request& r : trace) serve(twin, r);
  expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(),
                             "snap+suffix");
  EXPECT_EQ(twin.n_star(), recovered.machine().n_star());
  EXPECT_EQ(twin.parked_jobs(), recovered.machine().parked_jobs());

  // Keep running BOTH — the recovered instance and the twin must stay in
  // lockstep on a fresh suffix (and keep logging: a second recovery works).
  const std::vector<Request> more = churn_trace(14, 1'000);
  for (const Request& r : more) {
    if (r.kind == RequestKind::kInsert) {
      const JobId id{r.job.value + 1'000'000};  // avoid collisions
      const RequestStats a = recovered.service.insert(id, r.window);
      const RequestStats b = twin.insert(id, r.window);
      EXPECT_EQ(a.reallocations, b.reallocations);
    }
  }
  expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(),
                             "post-continue");
  recovered.machine().audit();
}

TEST(Recovery, CorruptNewestSnapshotFallsBackToOlder) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(17, 3'000);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 500;  // several snapshots
  policy.keep_snapshots = 8;
  {
    DurableService durable(policy, options);
    for (const Request& r : trace) serve(durable.service, r);
    durable.service.sync_wal();
  }
  std::vector<std::uint64_t> snaps = durability::list_snapshots(dir.path);
  ASSERT_GE(snaps.size(), 2u);
  // Corrupt the newest snapshot.
  {
    const std::string newest = durability::snapshot_path(dir.path, snaps[0]);
    std::fstream file(newest, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(100);
    file.write("\xff\xff\xff\xff", 4);
  }
  DurableService recovered(policy, options);
  EXPECT_EQ(recovered.service.recovery_report().snapshots_skipped, 1u);
  EXPECT_EQ(recovered.service.recovery_report().snapshot_csn, snaps[1]);
  EXPECT_EQ(recovered.service.csn(), trace.size());

  ReservationScheduler twin(options);
  for (const Request& r : trace) serve(twin, r);
  expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(), "fallback");
}

TEST(Recovery, AuditEngineReseedsAfterRecovery) {
  TempDir dir;
  SchedulerOptions options = base_options();
  options.audit_policy.mode = audit::Mode::kIncremental;
  options.audit_policy.cadence = 0;  // driven manually
  const std::vector<Request> trace = churn_trace(19, 2'000);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_on_flip = true;
  {
    DurableService durable(policy, options);
    for (const Request& r : trace) serve(durable.service, r);
    durable.service.sync_wal();
  }
  DurableService recovered(policy, options);
  EXPECT_GT(recovered.service.recovery_report().snapshot_csn, 0u);
  ReservationScheduler& rs = recovered.machine();

  // The loader's audit reseeded the dirty-tracking shadows from the image
  // it verified, without counting as audit work: no full sweep is pending
  // or spent, and the first audit after recovery is already incremental.
  EXPECT_EQ(rs.audit_work().full_sweeps, 0u);
  rs.incremental_audit();
  const auto after_first = rs.audit_work();
  EXPECT_EQ(after_first.full_sweeps, 0u);
  EXPECT_EQ(after_first.incremental_audits, 1u);

  // From then on the engine runs incrementally and stays clean.
  std::size_t served = 0;
  for (const Request& r : churn_trace(23, 500)) {
    if (r.kind != RequestKind::kInsert) continue;
    recovered.service.insert(JobId{r.job.value + 2'000'000}, r.window);
    if (++served % 100 == 0) rs.incremental_audit();
  }
  const auto after_churn = rs.audit_work();
  EXPECT_EQ(after_churn.full_sweeps, after_first.full_sweeps);
  EXPECT_GT(after_churn.incremental_audits, after_first.incremental_audits);
  rs.audit();  // and the full sweep agrees
}

TEST(Recovery, AuditOffStaysZeroWorkThroughASnapshotLoad) {
  // The loader audits every image it decodes, but that check is part of
  // the decode: a machine recovered with the audit off reports zero audit
  // work, as one that never crashed does.
  TempDir dir;
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 300;
  const std::vector<Request> trace = churn_trace(29, 1'000);
  {
    DurableService durable(policy, base_options());
    for (const Request& r : trace) serve(durable.service, r);
  }
  DurableService recovered(policy, base_options());
  EXPECT_GT(recovered.service.recovery_report().snapshot_csn, 0u);
  EXPECT_TRUE(recovered.machine().audit_work().zero());
  EXPECT_EQ(recovered.machine().audit_backlog(), 0u);
}

TEST(Recovery, BatchRejectionRuleSurvivesReopen) {
  // apply() under kThrow on one machine: a rejected insert is logged and
  // consumes a CSN, its moot erase is rejected, and a feasible retry of the
  // same id is served. The sub-batch was logged before a machine rejected
  // the insert, so the moot erase holds a CSN too. A reopen replays exactly
  // that log to the same state.
  TempDir dir;
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kThrow;
  DurabilityPolicy policy;
  policy.dir = dir.path;
  Schedule served;
  {
    DurableService durable(policy, options);
    const BatchResult setup = durable.service.apply(
        std::vector<Request>{Request::insert(JobId{10}, Window{8, 16})});
    ASSERT_TRUE(setup.all_served());
    EXPECT_EQ(setup.first_csn, 1u);
    EXPECT_EQ(setup.last_csn, 1u);

    // Window [0,1) holds one job on one machine.
    const std::vector<Request> batch = {
        Request::insert(JobId{1}, Window{0, 1}),  // CSN 2
        Request::insert(JobId{2}, Window{0, 1}),  // CSN 3, rejected: slot taken
        Request::erase(JobId{2}),                 // CSN 4, moot
        Request::erase(JobId{1}),                 // CSN 5
        Request::insert(JobId{2}, Window{0, 1}),  // CSN 6, the retry fits
    };
    const BatchResult result = durable.service.apply(batch);
    EXPECT_EQ(result.rejected, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(result.first_csn, 2u);
    EXPECT_EQ(result.last_csn, 6u);
    EXPECT_EQ(durable.service.csn(), 6u);
    EXPECT_EQ(durable.service.active_jobs(), 2u);
    served = durable.service.snapshot();
  }
  DurableService recovered(policy, options);
  EXPECT_EQ(recovered.service.recovery_report().replayed, 6u);
  EXPECT_EQ(recovered.service.recovery_report().rejected_replays, 2u);
  EXPECT_EQ(recovered.service.csn(), 6u);
  expect_identical_schedules(served, recovered.service.snapshot(), "batch-rejection");
}

// ------------------------------------------------------------ sharded WAL

constexpr unsigned kShardedMachines = 8;

std::vector<Request> sharded_trace(std::uint64_t seed) {
  ChurnParams params;
  params.seed = seed;
  params.requests = 2'000;
  params.target_active = 512;
  params.machines = kShardedMachines;
  params.min_span = 64;
  params.max_span = 2048;
  return make_churn_trace(params);
}

ShardedScheduler::Factory machine_factory() {
  return [] { return std::make_unique<ReservationScheduler>(base_options()); };
}

ShardedScheduler::Options sharded_wal_options(const std::string& dir) {
  ShardedScheduler::Options options;
  options.shards = 4;
  options.wal = DurabilityPolicy{.dir = dir};
  return options;
}

/// Serves `trace` in 64-request batches; each batch's CSN range must pick
/// up where the previous one ended, so the ranges cover 1..csn() densely.
void serve_batched(ShardedScheduler& sharded, const std::vector<Request>& trace) {
  std::uint64_t expect_csn = 1;
  for (std::size_t i = 0; i < trace.size(); i += 64) {
    const std::size_t n = std::min<std::size_t>(64, trace.size() - i);
    const BatchResult result = sharded.apply({trace.data() + i, n});
    EXPECT_TRUE(result.all_served());
    if (result.first_csn != 0) {
      EXPECT_EQ(result.first_csn, expect_csn);
      expect_csn = result.last_csn + 1;
    }
  }
  EXPECT_EQ(expect_csn - 1, sharded.csn());
}

/// Serves `trace` one request at a time through insert()/erase(), the
/// sequential reduction's path.
void serve_one_at_a_time(ShardedScheduler& sharded, const std::vector<Request>& trace) {
  for (const Request& r : trace) serve(sharded, r);
}

TEST(Recovery, ShardedServiceWritesOneCsnOrderedLog) {
  // Two inputs, one log: the trace served in batches through apply(), and
  // one request at a time through insert()/erase().
  using ServeTrace = void (*)(ShardedScheduler&, const std::vector<Request>&);
  const std::pair<const char*, ServeTrace> inputs[] = {
      {"batched", serve_batched}, {"one-at-a-time", serve_one_at_a_time}};
  const std::vector<Request> trace = sharded_trace(31);
  for (const auto& [input, serve_trace] : inputs) {
    SCOPED_TRACE(input);
    TempDir dir;
    {
      ShardedScheduler sharded(kShardedMachines, machine_factory(),
                               sharded_wal_options(dir.path));
      serve_trace(sharded, trace);
      sharded.sync_wal();
      EXPECT_EQ(sharded.csn(), trace.size());

      // Exactly one log file at 4 shards...
      std::vector<std::string> logs;
      for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("wal-") && name.ends_with(".log")) logs.push_back(name);
      }
      EXPECT_EQ(logs, std::vector<std::string>{"wal-000.log"});
      // ...holding CSNs 1..csn() densely, in ascending order.
      const WalReadResult wal = durability::read_wal(durability::wal_path(dir.path));
      EXPECT_FALSE(wal.torn_tail);
      ASSERT_EQ(wal.records.size(), sharded.csn());
      for (std::size_t i = 0; i < wal.records.size(); ++i) {
        ASSERT_EQ(wal.records[i].csn, i + 1) << "record " << i;
      }
    }

    // Construction is recovery: the log replays to the same state.
    ShardedScheduler recovered(kShardedMachines, machine_factory(),
                               sharded_wal_options(dir.path));
    EXPECT_EQ(recovered.recovery_report().replayed, trace.size());
    EXPECT_EQ(recovered.csn(), trace.size());
    recovered.audit_balance();

    ShardedScheduler::Options no_wal;
    no_wal.shards = 4;
    ShardedScheduler twin(kShardedMachines, machine_factory(), no_wal);
    serve_trace(twin, trace);
    expect_identical_schedules(twin.snapshot(), recovered.snapshot(), input);
    EXPECT_EQ(twin.active_jobs(), recovered.active_jobs());
  }
}

TEST(Recovery, ShardedRefusesPerShardLogDirectory) {
  // Older builds split the sharded log into wal-000.log, wal-001.log, ...
  // by window stripe. Recovering wal-000.log alone would silently drop the
  // other stripes' requests, so construction refuses the directory.
  TempDir dir;
  const DurabilityPolicy policy{.dir = dir.path};
  const std::vector<WalRecord> records = sample_records(8);
  const std::string logs[] = {durability::wal_path(dir.path),
                               durability::legacy_shard_log_path(dir.path)};
  for (std::size_t shard = 0; shard < 2; ++shard) {
    WalWriter writer;
    writer.open(logs[shard], policy);
    for (std::size_t i = shard; i < records.size(); i += 2) writer.append(records[i]);
  }
  EXPECT_THROW(
      ShardedScheduler(kShardedMachines, machine_factory(), sharded_wal_options(dir.path)),
      durability::CorruptInput);
}

// ------------------------------------------------- batched replay

TEST(Recovery, ChecksummedInvalidRecordIsCorruption) {
  // The service logs no precondition-violating request, so a CRC-valid
  // record that violates one can only be corruption. Recovery, on eight
  // machines and on one, refuses the log with CorruptInput naming the
  // replay batch's CSN range, and leaves its bytes alone.
  const Window window{0, 64};
  const std::pair<const char*, std::vector<WalRecord>> logs[] = {
      {"erase of an unknown id",
       {WalRecord::insert(1, JobId{1}, window), WalRecord::erase(2, JobId{7})}},
      {"second insert of an active id",
       {WalRecord::insert(1, JobId{1}, window), WalRecord::insert(2, JobId{1}, window)}},
  };
  using Open = void (*)(const std::string&);
  const std::pair<const char*, Open> front_ends[] = {
      {"sharded",
       [](const std::string& dir) {
         ShardedScheduler(kShardedMachines, machine_factory(), sharded_wal_options(dir));
       }},
      {"single-machine",
       [](const std::string& dir) {
         DurableService(DurabilityPolicy{.dir = dir}, base_options());
       }},
  };
  for (const auto& [log_name, records] : logs) {
    for (const auto& [front_end, open] : front_ends) {
      SCOPED_TRACE(std::string(log_name) + ", " + front_end);
      TempDir dir;
      const std::string path = durability::wal_path(dir.path);
      {
        WalWriter writer;
        writer.open(path, DurabilityPolicy{.dir = dir.path});
        for (const WalRecord& record : records) writer.append(record);
      }
      const auto bytes = std::filesystem::file_size(path);
      try {
        open(dir.path);
        ADD_FAILURE() << "recovery accepted an invalid record";
      } catch (const durability::CorruptInput& e) {
        EXPECT_NE(std::string(e.what()).find("csn 1..2"), std::string::npos) << e.what();
      }
      EXPECT_EQ(std::filesystem::file_size(path), bytes);
    }
  }
}

SchedulerOptions throw_options() {
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kThrow;
  return options;
}

ShardedScheduler::Factory throw_factory() {
  return [] { return std::make_unique<ReservationScheduler>(throw_options()); };
}

/// Recovery as it ran before replay was batched: every surviving record
/// through serve_request, one at a time, under one rejection set. Returns
/// the number of rejected replays.
std::uint64_t replay_one_at_a_time(IReallocScheduler& twin, const std::string& dir) {
  const WalReadResult wal = durability::read_wal(durability::wal_path(dir));
  FlatHashSet<JobId> rejected_ids;
  RequestStats stats;
  std::uint64_t rejected = 0;
  for (const WalRecord& record : wal.records) {
    if (!serve_request(twin, record.to_request(), rejected_ids, stats)) ++rejected;
  }
  return rejected;
}

TEST(Recovery, MootEraseInALaterReplayBatchThanItsRejectedInsert) {
  // The sharded service logs a sub-batch before applying it. When an
  // insert is rejected, the sub-batch is rolled back and re-run, and the
  // log keeps the erase of the rejected job. Padding puts more than one
  // replay batch between a rejection and the records that depend on it.
  TempDir dir;
  ShardedScheduler::Options options;
  options.wal = DurabilityPolicy{.dir = dir.path};
  constexpr std::uint64_t kPadding = 20'000;
  std::vector<Request> batch;
  std::uint64_t next_pad = 100;
  const auto pad = [&] {
    for (std::uint64_t i = 0; i < kPadding / 2; ++i, ++next_pad) {
      batch.push_back(Request::insert(JobId{next_pad}, Window{64, 128}));
      batch.push_back(Request::erase(JobId{next_pad}));
    }
  };
  const auto rejected_at = [&] { return static_cast<std::uint32_t>(batch.size()); };
  // Window [0,1) holds one job on one machine.
  batch.push_back(Request::insert(JobId{1}, Window{0, 1}));
  std::vector<std::uint32_t> expect_rejected = {rejected_at()};
  batch.push_back(Request::insert(JobId{2}, Window{0, 1}));  // slot taken
  expect_rejected.push_back(rejected_at());
  batch.push_back(Request::insert(JobId{3}, Window{0, 1}));  // slot taken
  pad();
  expect_rejected.push_back(rejected_at());
  batch.push_back(Request::erase(JobId{2}));  // moot, a later replay batch
  batch.push_back(Request::erase(JobId{1}));
  batch.push_back(Request::insert(JobId{3}, Window{0, 1}));  // the retry fits
  // A rejection and its retry in one replay batch; the erase comes later.
  expect_rejected.push_back(rejected_at());
  batch.push_back(Request::insert(JobId{4}, Window{0, 1}));  // slot taken
  batch.push_back(Request::erase(JobId{3}));
  batch.push_back(Request::insert(JobId{4}, Window{0, 1}));  // the retry fits
  pad();
  batch.push_back(Request::erase(JobId{4}));  // served, not moot
  batch.push_back(Request::insert(JobId{5}, Window{0, 1}));
  Schedule live;
  {
    ShardedScheduler sharded(1, throw_factory(), options);
    const BatchResult result = sharded.apply(batch);
    ASSERT_EQ(result.rejected, expect_rejected);
    EXPECT_EQ(sharded.csn(), batch.size());  // the moot erase is logged too
    EXPECT_EQ(sharded.active_jobs(), 1u);
    live = sharded.snapshot();
  }
  ShardedScheduler recovered(1, throw_factory(), options);
  EXPECT_EQ(recovered.recovery_report().replayed, batch.size());
  EXPECT_EQ(recovered.recovery_report().rejected_replays, expect_rejected.size());
  EXPECT_EQ(recovered.csn(), batch.size());
  expect_identical_schedules(live, recovered.snapshot(), "recovered vs live");

  ShardedScheduler twin(1, throw_factory());
  EXPECT_EQ(replay_one_at_a_time(twin, dir.path), expect_rejected.size());
  expect_identical_schedules(twin.snapshot(), recovered.snapshot(),
                             "recovered vs one at a time");
}

TEST(Recovery, ShardedThrowLogWithLiveRejectionsRecoversTheLiveSchedule) {
  // Dense aligned windows of span 1-8 in [0,64) on 4 machines under kThrow:
  // live batches reject inserts, roll back and re-run. Recovery replays the
  // log in its own batches and must re-derive every live rejection and
  // land on the live job set with the Lemma 3 balance intact. Slots are
  // not compared: a rolled-back sub-batch leaves its machines equivalent
  // but not bit-identical (sharded_scheduler.hpp), live and in replay, and
  // the log does not record where the live sub-batches were cut.
  constexpr unsigned kMachines = 4;
  std::uint64_t all_rejections = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    ShardedScheduler::Options options;
    options.shards = 2;
    options.wal = DurabilityPolicy{.dir = dir.path};
    Schedule live;
    std::uint64_t live_rejections = 0;
    std::uint64_t live_csn = 0;
    {
      ShardedScheduler sharded(kMachines, throw_factory(), options);
      Rng rng(seed);
      std::vector<JobId> active;
      std::uint64_t next_id = 1;
      for (int round = 0; round < 40; ++round) {
        std::vector<Request> batch;
        std::vector<JobId> erasable = active;  // plus this batch's inserts
        for (int k = 0; k < 32; ++k) {
          if (!erasable.empty() && rng.chance(0.4)) {
            const std::size_t pick = rng.uniform(0, erasable.size() - 1);
            batch.push_back(Request::erase(erasable[pick]));
            erasable[pick] = erasable.back();
            erasable.pop_back();
          } else {
            const Time span = Time{1} << rng.uniform(0, 3);
            const Time start = static_cast<Time>(rng.uniform(0, 64 / span - 1)) * span;
            const JobId id{next_id++};
            batch.push_back(Request::insert(id, Window{start, start + span}));
            erasable.push_back(id);
          }
        }
        const BatchResult result = sharded.apply(batch);
        live_rejections += result.rejected.size();
        std::size_t next = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (next < result.rejected.size() && result.rejected[next] == i) {
            ++next;
          } else if (batch[i].kind == RequestKind::kInsert) {
            active.push_back(batch[i].job);
          } else {
            std::erase(active, batch[i].job);
          }
        }
      }
      EXPECT_EQ(sharded.active_jobs(), active.size());
      live = sharded.snapshot();
      live_csn = sharded.csn();
    }
    all_rejections += live_rejections;
    ShardedScheduler recovered(kMachines, throw_factory(), options);
    EXPECT_EQ(recovered.recovery_report().replayed, live_csn);
    EXPECT_EQ(recovered.recovery_report().rejected_replays, live_rejections);
    recovered.audit_balance();
    const Schedule schedule = recovered.snapshot();
    ASSERT_EQ(schedule.size(), live.size());
    for (const auto& [id, placement] : live.assignments()) {
      EXPECT_TRUE(schedule.find(id).has_value()) << "job " << id.value;
    }
  }
  EXPECT_GT(all_rejections, 100u);  // the rejection path really ran
}

// ------------------------------------------------------- service snapshots

TEST(Recovery, ShardedSnapshotPlusSuffixMatchesTwinAndContinues) {
  // Four machines, two shards, batched: snapshots hold every machine's
  // image and the ledger at one CSN, so recovery replays only the suffix
  // and lands on the twin's schedule, machine by machine.
  constexpr unsigned kMachines = 4;
  TempDir dir;
  const std::vector<Request> trace = sharded_trace(53);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 256;
  policy.snapshot_on_flip = true;
  {
    DurableService live(policy, base_options(), kMachines, 2);
    serve_batched(live.service, trace);
  }
  DurableService recovered(policy, base_options(), kMachines, 2);
  const durability::RecoveryReport& report = recovered.service.recovery_report();
  EXPECT_GT(report.snapshot_csn, 0u);
  EXPECT_EQ(report.snapshot_csn + report.replayed, trace.size());
  EXPECT_EQ(recovered.service.csn(), trace.size());
  recovered.service.audit_balance();

  std::vector<ReservationScheduler*> twin_machines;
  ShardedScheduler twin(kMachines, [&twin_machines] {
    auto machine = std::make_unique<ReservationScheduler>(base_options());
    twin_machines.push_back(machine.get());
    return machine;
  });
  for (const Request& r : trace) serve(twin, r);
  expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(), "recovered");
  for (unsigned m = 0; m < kMachines; ++m) {
    EXPECT_EQ(twin_machines[m]->n_star(), recovered.machine(m).n_star()) << m;
    recovered.machine(m).audit();
  }

  // The recovered ledger makes the twin's delegation and rebalance
  // decisions: insert fresh jobs, then erase them again.
  std::vector<JobId> added;
  for (const Request& r : sharded_trace(54)) {
    if (r.kind != RequestKind::kInsert) continue;
    const JobId id{r.job.value + 1'000'000};
    const RequestStats a = recovered.service.insert(id, r.window);
    const RequestStats b = twin.insert(id, r.window);
    EXPECT_EQ(a.reallocations, b.reallocations);
    added.push_back(id);
  }
  for (const JobId id : added) {
    EXPECT_EQ(recovered.service.erase(id).migrations, twin.erase(id).migrations);
  }
  expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(), "continued");
  recovered.service.audit_balance();
}

TEST(Recovery, PreconditionViolationsNeverReachTheLog) {
  // A window the machines refuse (unaligned) is refused before it gets a
  // CSN, on the sequential path and in a batch. The live service is
  // unchanged and the log reopens cleanly.
  struct Path {
    const char* name;
    unsigned machines;
    unsigned shards;
    bool batched;
  };
  for (const Path path : {Path{"sequential", 1, 1, false}, Path{"batch", 4, 2, true}}) {
    for (const Window bad : {Window{3, 8}, Window{4, 12}}) {
      SCOPED_TRACE(std::string(path.name) + ", window [" + std::to_string(bad.start) +
                   "," + std::to_string(bad.end) + ")");
      TempDir dir;
      const DurabilityPolicy policy{.dir = dir.path};
      Schedule before;
      {
        DurableService durable(policy, base_options(), path.machines, path.shards);
        ShardedScheduler& service = durable.service;
        service.apply(std::vector<Request>{Request::insert(JobId{1}, Window{0, 8}),
                                           Request::insert(JobId{2}, Window{8, 16})});
        const std::uint64_t csn = service.csn();
        before = service.snapshot();
        if (path.batched) {
          const std::vector<Request> batch = {Request::insert(JobId{3}, Window{16, 24}),
                                              Request::insert(JobId{4}, bad)};
          EXPECT_THROW(service.apply(batch), ContractViolation);
        } else {
          EXPECT_THROW(service.insert(JobId{4}, bad), ContractViolation);
        }
        EXPECT_EQ(service.csn(), csn);
        EXPECT_EQ(service.active_jobs(), 2u);
        expect_identical_schedules(before, service.snapshot(), "live");
        service.audit_balance();
        // The directory still agrees with the machines.
        service.erase(JobId{1});
        service.insert(JobId{1}, Window{0, 8});
        before = service.snapshot();
      }
      DurableService reopened(policy, base_options(), path.machines, path.shards);
      EXPECT_EQ(reopened.service.csn(), 4u);
      expect_identical_schedules(before, reopened.service.snapshot(), "reopened");
    }
  }
}

TEST(Recovery, LaterSubBatchViolationKeepsEarlierSubBatches) {
  // apply() checks preconditions one sub-batch at a time. The second
  // insert of id 1 starts a new sub-batch (the id still looks active), and
  // its check throws after the first sub-batch was applied and logged.
  TempDir dir;
  const DurabilityPolicy policy{.dir = dir.path};
  Schedule applied;
  {
    DurableService durable(policy, base_options());
    ShardedScheduler& service = durable.service;
    const std::vector<Request> batch = {Request::insert(JobId{1}, Window{0, 8}),
                                        Request::insert(JobId{1}, Window{8, 16})};
    EXPECT_THROW(service.apply(batch), ContractViolation);
    EXPECT_EQ(service.csn(), 1u);
    EXPECT_EQ(service.active_jobs(), 1u);
    applied = service.snapshot();
    ASSERT_TRUE(applied.find(JobId{1}).has_value());
    EXPECT_TRUE(Window(0, 8).contains(applied.find(JobId{1})->slot));
    service.audit_balance();
  }
  DurableService reopened(policy, base_options());
  EXPECT_EQ(reopened.service.csn(), 1u);
  EXPECT_EQ(reopened.service.active_jobs(), 1u);
  expect_identical_schedules(applied, reopened.service.snapshot(), "reopened");
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  // A new file rather than an in-place truncation, which some filesystems
  // flush to disk on close.
  std::filesystem::remove(path);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// `payload` with write_snapshot's trailer (payload_len u64, crc32c u32),
/// so only the payload decoder can refuse it.
std::vector<char> sealed(std::vector<char> payload) {
  const std::uint64_t len = payload.size();
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) payload.push_back(static_cast<char>(len >> (8 * i)));
  for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>(crc >> (8 * i)));
  return payload;
}

std::uint64_t get_u64(const std::vector<char>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  }
  return v;
}

/// Offsets into a service snapshot payload. Layout: magic u64 | machine
/// count u32 | per machine, image length u64 + image | ledger: window count
/// u64, per window start, end and one pool (count u64 + ids) per machine.
struct LedgerWindow {
  std::size_t begin = 0, end = 0;
  std::vector<std::size_t> pools;  // offset of each machine's pool count
};
struct PayloadLayout {
  std::vector<std::size_t> image_at;  // offset of each machine's length field
  std::size_t ledger_at = 0;
  std::vector<LedgerWindow> windows;
  std::size_t end = 0;
};

PayloadLayout payload_layout(const std::vector<char>& payload, unsigned machines) {
  PayloadLayout layout;
  std::size_t at = 12;
  for (unsigned m = 0; m < machines; ++m) {
    layout.image_at.push_back(at);
    at += 8 + get_u64(payload, at);
  }
  layout.ledger_at = at;
  layout.windows.resize(get_u64(payload, at));
  at += 8;
  for (LedgerWindow& w : layout.windows) {
    w.begin = at;
    at += 16;
    for (unsigned m = 0; m < machines; ++m) {
      w.pools.push_back(at);
      at += 8 + 8 * get_u64(payload, at);
    }
    w.end = at;
  }
  layout.end = at;
  return layout;
}

TEST(ServiceSnapshot, DecoderRefusesDamagedBytesAndRecoveryFallsBack) {
  // The service snapshot's bytes are untrusted: every damaged copy of the
  // newest snapshot is refused without crashing, and recovery falls back
  // to the older snapshot and lands on the live schedule. Runs in the
  // ASan/UBSan lane.
  constexpr unsigned kMachines = 3;
  TempDir dir;
  ChurnParams params;
  params.seed = 61;
  params.requests = 150;
  params.target_active = 12;
  params.machines = kMachines;
  params.min_span = 64;
  params.max_span = 1024;
  const std::vector<Request> trace = make_churn_trace(params);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 50;
  policy.keep_snapshots = 8;
  Schedule live;
  {
    DurableService durable(policy, base_options(), kMachines, 2);
    serve_batched(durable.service, trace);
    live = durable.service.snapshot();
  }
  const std::vector<std::uint64_t> snaps = durability::list_snapshots(dir.path);
  ASSERT_GE(snaps.size(), 2u);
  const std::string newest = durability::snapshot_path(dir.path, snaps[0]);
  const std::vector<char> intact = read_file(newest);
  ASSERT_GT(intact.size(), 12u);
  const std::vector<char> payload(intact.begin(), intact.end() - 12);

  const auto recovers_from = [&](std::uint64_t snapshot_csn, const std::string& where) {
    DurableService recovered(policy, base_options(), kMachines, 2);
    const durability::RecoveryReport& report = recovered.service.recovery_report();
    EXPECT_EQ(report.snapshot_csn, snapshot_csn) << where;
    EXPECT_EQ(recovered.service.csn(), trace.size()) << where;
    expect_identical_schedules(live, recovered.service.snapshot(), where.c_str());
    return !::testing::Test::HasFailure();
  };
  ASSERT_TRUE(recovers_from(snaps[0], "intact"));

  // Framing: a truncated or byte-flipped file never reaches the decoder.
  const auto never_decoded = [](durability::ByteSource&) {
    ADD_FAILURE() << "damaged framing reached the payload decoder";
  };
  for (std::size_t len = 0; len < intact.size(); ++len) {
    write_file(newest, std::vector<char>(intact.begin(), intact.begin() + len));
    ASSERT_FALSE(durability::load_snapshot(newest, never_decoded)) << "truncated at " << len;
  }
  for (std::size_t at = 0; at < intact.size(); ++at) {
    std::vector<char> flipped = intact;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5A);
    write_file(newest, flipped);
    ASSERT_FALSE(durability::load_snapshot(newest, never_decoded)) << "flipped at " << at;
  }

  // Payload: re-sealed damage that only the decoder can refuse.
  const PayloadLayout layout = payload_layout(payload, kMachines);
  ASSERT_EQ(layout.end, payload.size());
  const std::vector<std::size_t>& image_at = layout.image_at;
  const std::size_t ledger_at = layout.ledger_at;
  const std::vector<LedgerWindow>& windows = layout.windows;
  // Cut the payload at every offset of the service's own fields and near
  // every image edge, and at a stride inside the images (SchedulerPersist's
  // decoder has its own cases above).
  const auto near_field = [&](std::size_t len) {
    if (len < 12 + 24 || len >= ledger_at) return true;
    for (const std::size_t edge : image_at) {
      if (len + 24 > edge && len < edge + 8 + 24) return true;
    }
    return false;
  };
  std::size_t cuts = 0;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (!near_field(len) && len % 61 != 0) continue;
    write_file(newest, sealed(std::vector<char>(payload.begin(), payload.begin() + len)));
    ASSERT_TRUE(recovers_from(snaps[1], "payload cut at " + std::to_string(len)));
    ++cuts;
  }
  EXPECT_GT(cuts, payload.size() - ledger_at);
  {
    std::vector<char> count = payload;
    count[8] = static_cast<char>(kMachines + 1);
    write_file(newest, sealed(count));
    EXPECT_TRUE(recovers_from(snaps[1], "machine count"));
  }
  const auto pool_size = [&](const LedgerWindow& w, unsigned m) {
    return get_u64(payload, w.pools[m]);
  };
  // Machines 0 and 1 trade images, and optionally their ledger pools too.
  const auto machines_traded = [&](bool pools_too) {
    std::vector<char> out(payload.begin(), payload.begin() + 12);
    out.insert(out.end(), payload.begin() + image_at[1], payload.begin() + image_at[2]);
    out.insert(out.end(), payload.begin() + image_at[0], payload.begin() + image_at[1]);
    out.insert(out.end(), payload.begin() + image_at[2], payload.begin() + ledger_at + 8);
    for (const LedgerWindow& w : windows) {
      const std::size_t pool0 = pools_too ? w.pools[1] : w.pools[0];
      const std::size_t pool1 = pools_too ? w.pools[0] : w.pools[1];
      out.insert(out.end(), payload.begin() + w.begin, payload.begin() + w.pools[0]);
      out.insert(out.end(), payload.begin() + pool0, payload.begin() + pool0 + 8 + 8 * get_u64(payload, pool0));
      out.insert(out.end(), payload.begin() + pool1, payload.begin() + pool1 + 8 + 8 * get_u64(payload, pool1));
      out.insert(out.end(), payload.begin() + w.pools[2], payload.begin() + w.end);
    }
    return out;
  };
  // Each image is valid, the ledger is not.
  write_file(newest, sealed(machines_traded(false)));
  EXPECT_TRUE(recovers_from(snaps[1], "traded images"));
  // Images and pools agree, but window shares no longer put the extras on
  // the earliest machines (Lemma 3).
  ASSERT_TRUE(std::any_of(windows.begin(), windows.end(), [&](const LedgerWindow& w) {
    return pool_size(w, 0) != pool_size(w, 1);
  })) << "layout assumption: a window with unequal shares";
  write_file(newest, sealed(machines_traded(true)));
  EXPECT_TRUE(recovers_from(snaps[1], "traded machines"));
  {
    // Two machines trade one job of the same window in the ledger: the
    // shares still satisfy Lemma 3, but the pools disagree with the
    // machines' job sets.
    const auto shared = std::find_if(windows.begin(), windows.end(), [&](const LedgerWindow& w) {
      return pool_size(w, 0) > 0 && pool_size(w, 1) > 0;
    });
    ASSERT_NE(shared, windows.end()) << "layout assumption: a window on two machines";
    std::vector<char> traded = payload;
    std::swap_ranges(traded.begin() + shared->pools[0] + 8,
                     traded.begin() + shared->pools[0] + 16,
                     traded.begin() + shared->pools[1] + 8);
    write_file(newest, sealed(traded));
    EXPECT_TRUE(recovers_from(snaps[1], "traded ledger jobs"));
  }
  {
    // A window missing from the ledger: what is left is balanced and held
    // by the machines, but the machines hold more.
    std::vector<char> dropped(payload.begin(), payload.begin() + ledger_at);
    const std::uint64_t fewer = windows.size() - 1;
    for (int i = 0; i < 8; ++i) dropped.push_back(static_cast<char>(fewer >> (8 * i)));
    dropped.insert(dropped.end(), payload.begin() + windows[0].end, payload.end());
    write_file(newest, sealed(dropped));
    EXPECT_TRUE(recovers_from(snaps[1], "dropped window"));
  }

  // Every snapshot damaged: a full replay.
  for (const std::uint64_t csn : snaps) {
    write_file(durability::snapshot_path(dir.path, csn), sealed({}));
  }
  EXPECT_TRUE(recovers_from(0, "no loadable snapshot"));
}

TEST(ServiceSnapshot, LedgerListingAJobTwiceIsRefused) {
  // A re-sealed snapshot whose ledger lists one id twice, in one pool or in
  // two windows, with every share and per-machine count unchanged: the
  // ledger's decoder refuses it (its directory holds each job once), and
  // recovery falls back to the older snapshot and the live schedule.
  constexpr unsigned kMachines = 2;
  TempDir dir;
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 4;
  policy.keep_snapshots = 8;
  // Six jobs in each of two windows: three per machine per window.
  std::vector<Request> trace;
  for (std::uint64_t k = 0; k < 12; ++k) {
    const Time start = k < 6 ? 0 : 64;
    trace.push_back(Request::insert(JobId{k + 1}, Window{start, start + 64}));
  }
  Schedule live;
  {
    DurableService durable(policy, base_options(), kMachines, 2);
    serve_one_at_a_time(durable.service, trace);
    live = durable.service.snapshot();
  }
  const std::vector<std::uint64_t> snaps = durability::list_snapshots(dir.path);
  ASSERT_GE(snaps.size(), 2u);
  const std::string newest = durability::snapshot_path(dir.path, snaps[0]);
  const std::vector<char> intact = read_file(newest);
  const std::vector<char> payload(intact.begin(), intact.end() - 12);
  const PayloadLayout layout = payload_layout(payload, kMachines);
  ASSERT_EQ(layout.end, payload.size());
  ASSERT_EQ(layout.windows.size(), 2u);
  // Job k of machine m's pool in window w.
  const auto job_at = [&](std::size_t w, unsigned m, std::uint64_t k) {
    const std::size_t pool = layout.windows[w].pools[m];
    EXPECT_LT(k, get_u64(payload, pool));
    return pool + 8 + 8 * k;
  };
  const auto listed_twice = [&](std::size_t from, std::size_t to, const char* where) {
    std::vector<char> twice = payload;
    std::copy_n(payload.begin() + static_cast<long>(from), 8,
                twice.begin() + static_cast<long>(to));
    write_file(newest, sealed(twice));
    DurableService recovered(policy, base_options(), kMachines, 2);
    EXPECT_EQ(recovered.service.recovery_report().snapshot_csn, snaps[1]) << where;
    EXPECT_EQ(recovered.service.csn(), trace.size()) << where;
    expect_identical_schedules(live, recovered.service.snapshot(), where);
  };
  listed_twice(job_at(0, 1, 0), job_at(0, 1, 2), "an id twice in one pool");
  listed_twice(job_at(0, 0, 1), job_at(1, 0, 1), "an id in two windows");
  write_file(newest, intact);
  DurableService reopened(policy, base_options(), kMachines, 2);
  EXPECT_EQ(reopened.service.recovery_report().snapshot_csn, snaps[0]);
}

TEST(ServiceSnapshot, SlotOwnerOutsideItsClassWindowIsRefused) {
  // A slot cell keeps only its owner's span class, and the image writes
  // just that byte. A class at or past the level's class count is refused
  // by the decoder (it indexes the per-class counters); another in-range
  // class decodes and fails the audit that ends the load; a cell listed
  // twice is refused by the decoder. Each re-sealed image is refused, and
  // recovery falls back to the older snapshot and matches a twin that
  // never crashed.
  TempDir dir;
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 8;
  policy.keep_snapshots = 8;
  // Two level-1 jobs in each of eight span-64 windows: no trimming, no
  // parking, and every job sits on a slot assigned to its own window.
  std::vector<Request> trace;
  for (std::uint64_t k = 0; k < 16; ++k) {
    const Time start = static_cast<Time>(64 * (k / 2));
    trace.push_back(Request::insert(JobId{k + 1}, Window{start, start + 64}));
  }
  ShardedScheduler twin(1, [] { return std::make_unique<ReservationScheduler>(base_options()); });
  Schedule live;
  {
    DurableService durable(policy, base_options());
    for (const Request& r : trace) {
      serve(durable.service, r);
      serve(twin, r);
    }
    live = durable.service.snapshot();
  }
  expect_identical_schedules(twin.snapshot(), live, "twin");
  const std::vector<std::uint64_t> snaps = durability::list_snapshots(dir.path);
  ASSERT_GE(snaps.size(), 2u);
  ASSERT_EQ(snaps[0], trace.size()) << "layout assumption: the newest snapshot is the live state";
  const std::string newest = durability::snapshot_path(dir.path, snaps[0]);
  const std::vector<char> intact = read_file(newest);
  ASSERT_GT(intact.size(), 12u);
  const std::vector<char> payload(intact.begin(), intact.end() - 12);

  // Walk to job 3's cell. Service payload: magic u64 | machine count u32 |
  // image length u64 | image. Image: magic u64 | version u32 | fingerprint,
  // n*, parked count, audit index u64 | job table (count u64, 53 B per
  // job) | level count u64 | per level: intervals (count u64; base i64 |
  // cell count u32 | cells: offset u32, flags u8, class u8 if assigned),
  // then windows. Level 0 has neither.
  const Time slot = live.find(JobId{3})->slot;
  ASSERT_TRUE(Window(64, 128).contains(slot));
  constexpr std::size_t kImageLengthAt = 12;
  std::size_t at = kImageLengthAt + 8 + 44;
  at += 8 + 53 * get_u64(payload, at);
  ASSERT_EQ(get_u64(payload, at), 3u) << "layout assumption: three levels";
  ASSERT_EQ(get_u64(payload, at + 8), 0u) << "layout assumption: no level-0 intervals";
  ASSERT_EQ(get_u64(payload, at + 16), 0u) << "layout assumption: no level-0 windows";
  at += 24;
  std::size_t count_at = 0;  // the cell count of the interval holding `slot`
  std::size_t cell_at = 0;   // the cell of `slot`
  const std::uint64_t intervals = get_u64(payload, at);
  at += 8;
  for (std::uint64_t i = 0; i < intervals && cell_at == 0; ++i) {
    const bool holds = static_cast<Time>(get_u64(payload, at)) == slot - slot % 32;
    const std::uint64_t cells = get_u64(payload, at + 8) & 0xFFFFFFFF;
    if (holds) count_at = at + 8;
    at += 12;
    for (std::uint64_t c = 0; c < cells; ++c) {
      if (holds && (get_u64(payload, at) & 0xFFFFFFFF) == static_cast<std::uint64_t>(slot % 32)) {
        cell_at = at;
      }
      at += (payload[at + 4] & 2) != 0 ? 6 : 5;
    }
  }
  ASSERT_NE(cell_at, 0u) << "layout assumption: the cell is in the image";
  ASSERT_EQ(payload[cell_at + 4], 2) << "layout assumption: an assigned cell";
  ASSERT_EQ(payload[cell_at + 5], 0) << "layout assumption: a class-0 owner";

  const auto recovers_from_older = [&](std::vector<char> damaged, const char* where) {
    write_file(newest, sealed(std::move(damaged)));
    DurableService recovered(policy, base_options());
    EXPECT_EQ(recovered.service.recovery_report().snapshot_csn, snaps[1]) << where;
    EXPECT_EQ(recovered.service.csn(), trace.size()) << where;
    expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(), where);
    recovered.machine().audit();
  };
  const auto with_class = [&](std::uint8_t cls) {
    std::vector<char> damaged = payload;
    damaged[cell_at + 5] = static_cast<char>(cls);
    return damaged;
  };
  // Level 1 has three classes (spans 2^6..2^8).
  recovers_from_older(with_class(3), "class past the level");
  // The class-1 window containing the interval: in range, but not the
  // owner of the job on the slot.
  recovers_from_older(with_class(1), "another class");
  // The cell listed twice; the interval's cell count and the image length
  // grow to match.
  std::vector<char> twice = payload;
  twice.insert(twice.begin() + static_cast<long>(cell_at + 6), payload.begin() + cell_at,
               payload.begin() + cell_at + 6);
  ++twice[count_at];
  ASSERT_NE(twice[count_at], 0) << "layout assumption: a small cell count";
  twice[kImageLengthAt] = static_cast<char>(twice[kImageLengthAt] + 6);
  ASSERT_EQ(get_u64(twice, kImageLengthAt), get_u64(payload, kImageLengthAt) + 6)
      << "layout assumption: the image length's low byte does not carry";
  recovers_from_older(twice, "a cell twice");
  // The intact image still loads.
  write_file(newest, intact);
  DurableService recovered(policy, base_options());
  EXPECT_EQ(recovered.service.recovery_report().snapshot_csn, snaps[0]);
  expect_identical_schedules(twin.snapshot(), recovered.service.snapshot(), "intact");
}

// ------------------------------------------------------------ trace format

TEST(TraceWal, BinaryTraceRoundTrips) {
  TempDir dir;
  const std::string path = dir.path + "/trace.wal";
  const std::vector<Request> trace = churn_trace(37, 1'000);
  write_trace_wal(path, trace);
  const std::vector<Request> loaded = read_trace_wal(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, trace[i].kind) << i;
    EXPECT_EQ(loaded[i].job, trace[i].job) << i;
    if (trace[i].kind == RequestKind::kInsert) {
      EXPECT_EQ(loaded[i].window.start, trace[i].window.start) << i;
      EXPECT_EQ(loaded[i].window.end, trace[i].window.end) << i;
    }
  }
}

TEST(TraceWal, WalFileDoublesAsTrace) {
  // A durability log read back as a trace replays to the recovered state —
  // the "surviving request stream is a bug reproducer" property.
  const SchedulerOptions options = base_options();
  {
    TempDir dir;
    const std::vector<Request> trace = churn_trace(43, 1'200);
    {
      DurableService durable(DurabilityPolicy{.dir = dir.path}, options);
      for (const Request& r : trace) serve(durable.service, r);
      durable.service.sync_wal();
    }
    const std::vector<Request> replayed =
        read_trace_wal(durability::wal_path(dir.path));
    ASSERT_EQ(replayed.size(), trace.size());

    ReservationScheduler a(options);
    ReservationScheduler b(options);
    for (const Request& r : trace) serve(a, r);
    for (const Request& r : replayed) serve(b, r);
    expect_identical_schedules(a.snapshot(), b.snapshot(), "wal-as-trace");
  }
  {
    // Sharded input: the service's one log holds every request in CSN
    // order, so the sequential §3 reduction replays it to the service's
    // schedule.
    TempDir dir;
    const std::vector<Request> trace = sharded_trace(43);
    ShardedScheduler sharded(kShardedMachines, machine_factory(),
                             sharded_wal_options(dir.path));
    serve_batched(sharded, trace);
    sharded.sync_wal();
    const std::vector<Request> replayed =
        read_trace_wal(durability::wal_path(dir.path));
    ASSERT_EQ(replayed.size(), trace.size());

    ReallocatingScheduler sequential(kShardedMachines, options);
    for (const Request& r : replayed) serve(sequential, r);
    expect_identical_schedules(sharded.snapshot(), sequential.snapshot(),
                               "sharded wal-as-trace");
  }
}

TEST(TraceWal, SimDriverRecordsServedStream) {
  TempDir dir;
  const std::string path = dir.path + "/recorded.wal";
  const std::vector<Request> trace = churn_trace(47, 600);
  ReservationScheduler s(base_options());
  SimOptions sim;
  sim.record_trace = path;
  const SimReport report = replay_trace(s, trace, sim);
  EXPECT_TRUE(report.clean());
  const std::vector<Request> recorded = read_trace_wal(path);
  EXPECT_EQ(recorded.size(), trace.size());
}

}  // namespace
}  // namespace reasched
