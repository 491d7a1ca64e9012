// Crash recovery: newest valid snapshot + WAL-suffix replay (DESIGN.md §9).
//
// Recovery never trusts any single artifact. Snapshots are tried newest
// first and any corrupt one is skipped (falling back to an older snapshot,
// or to an empty scheduler with full-log replay) — that scan lives in
// DurableScheduler, the single-machine front end and the only one that
// snapshots; the sharded service (ShardedScheduler::Options::wal)
// recovers from its log alone. The log half is shared by both: the WAL's
// torn tail is truncated at the last valid checksum and the surviving
// record suffix is pushed through the scheduler's *normal* request path —
// the same determinism the partitioned-rebuild differentials rest on
// makes the recovered instance byte-identical to an uninterrupted twin
// that served exactly the surviving prefix (tests/crash_recovery_test.cpp).
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
  /// WAL records replayed through the request path.
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

/// The log half of construction-is-recovery, shared by DurableScheduler
/// and ShardedScheduler: creates `policy.dir` if missing, reads its log,
/// truncates the torn tail, replays every record with csn >
/// report.snapshot_csn through `target`'s request path (updating
/// replayed / rejected_replays / last_csn / torn_tail), then opens
/// `writer` to append where the surviving log ends.
///
/// Replayed inserts that throw InfeasibleError count as rejected, and
/// erases of those jobs are skipped — the batch API's rejection
/// semantics, which is what the live process reported to its caller. A
/// snapshot ahead of the log's surviving prefix (the log tail was lost
/// under sync_every == 0) leaves nothing to replay; the snapshot stands.
///
/// Throws CorruptInput for a garbled log header, and for a directory an
/// older per-shard build wrote (a wal-001.log next to the log): recovering
/// only wal-000.log would silently drop the other shards' requests.
void recover_log(const DurabilityPolicy& policy, IReallocScheduler& target,
                 RecoveryReport& report, WalWriter& writer);

}  // namespace reasched::durability
