// Crash recovery: newest valid snapshot + WAL-suffix replay (DESIGN.md §9).
//
// Recovery never trusts any single artifact. ShardedScheduler, the one
// durable front end, tries its snapshots newest first and skips any that
// fails to load (falling back to an older snapshot, or to empty machines
// with a full-log replay); each attempt starts on fresh machines. The log
// half is recover_log below: the WAL's torn tail is truncated at the last
// valid checksum and the surviving record suffix is replayed through the
// service's batch path, apply(), in fixed-size batches, so recovery uses
// the scan/plan/apply fan-out. Unless a replayed insert is rejected, the
// recovered instance is byte-identical to an uninterrupted twin that
// served exactly the surviving prefix one request at a time
// (tests/crash_recovery_test.cpp): the golden digests pin the batch path
// to the sequential one. A replay batch that rejects an insert rolls its
// sub-batch back to an equivalent but not bit-identical state
// (sharded_scheduler.hpp), as the live batch did, so slots may differ from
// the live process and from a one-request-at-a-time replay. Only
// OverflowPolicy::kThrow rejects; kBestEffort pipelines never do.
#pragma once

#include <cstdint>

#include "durability/wal.hpp"
#include "schedule/scheduler_interface.hpp"

namespace reasched::durability {

/// What construction-time recovery found and did. Every count is
/// observable by tests (e.g. "the corrupt snapshot was skipped":
/// snapshots_skipped == 1).
struct RecoveryReport {
  /// CSN of the snapshot the state was seeded from; 0 = started empty.
  std::uint64_t snapshot_csn = 0;
  /// Highest CSN folded into the recovered state (snapshot or replay).
  std::uint64_t last_csn = 0;
  /// WAL records replayed (every surviving record past the snapshot).
  std::uint64_t replayed = 0;
  /// Replayed inserts rejected (InfeasibleError) — deterministic re-runs
  /// of rejections the live process already reported — plus erases of
  /// those same jobs, skipped.
  std::uint64_t rejected_replays = 0;
  /// Committed snapshots that failed to load and were skipped.
  std::uint64_t snapshots_skipped = 0;
  /// The WAL ended in a torn/corrupt frame (it has been truncated).
  bool torn_tail = false;
  /// No durable state existed at all (fresh directory).
  [[nodiscard]] bool cold_start() const noexcept {
    return snapshot_csn == 0 && replayed == 0;
  }
};

/// The log half of ShardedScheduler's construction-is-recovery: creates
/// `policy.dir` if missing, reads its log,
/// truncates the torn tail, replays every record with csn >
/// report.snapshot_csn through `target.apply()` in fixed-size batches
/// (updating replayed / rejected_replays / last_csn / torn_tail), then
/// opens `writer` to append where the surviving log ends.
///
/// Replayed inserts that apply() rejects count as rejected, and erases of
/// those jobs are skipped — the batch API's rejection semantics, which is
/// what the live process reported to its caller. One set of rejected ids
/// spans the whole replay, so the rule holds across batch boundaries: an
/// erase whose insert an earlier batch rejected never reaches apply(). A
/// snapshot ahead of the log's surviving prefix (the log tail was lost
/// under sync_every == 0) leaves nothing to replay; the snapshot stands.
///
/// Throws CorruptInput for a garbled log header; for a directory an older
/// per-shard build wrote (a wal-001.log next to the log), since
/// recovering only wal-000.log would silently drop the other shards'
/// requests; and for a checksummed record that violates a request
/// precondition (the service logs none), naming the replay batch's CSN
/// range. None of these cuts the log beyond its torn tail.
void recover_log(const DurabilityPolicy& policy, IReallocScheduler& target,
                 RecoveryReport& report, WalWriter& writer);

}  // namespace reasched::durability
