// DurableScheduler: the durability tier's front door (DESIGN.md §9).
//
// Wraps any IReallocScheduler with write-ahead logging and — when the
// inner scheduler is a ReservationScheduler — generation snapshots:
//
//   * every insert/erase is assigned the next CSN and appended to the WAL
//     *before* the inner scheduler sees it (write-ahead); frames are cut
//     at DurabilityPolicy::frame_bytes and after every apply() batch, and
//     fsynced per policy.sync_every;
//   * a snapshot is written when a partitioned n*-rebuild completes its
//     generation flip (the scheduler is quiescent there, and the flip
//     boundary already absorbs rebuild-scale work — O(1) extra pauses
//     elsewhere) and/or every policy.snapshot_every records, deferred to
//     the next quiescent request while a migration is in flight;
//   * construction *is* recovery: newest valid snapshot, then the log
//     suffix through recover_log (durability/recovery.hpp) — the same
//     routine the sharded service recovers with — after which the writer
//     appends where the surviving log left off.
//
// Rejected inserts (InfeasibleError) are logged — write-ahead order —
// and consume a CSN; replay re-runs them and deterministically re-rejects,
// so recovered state never contains them. Precondition-violating requests
// (duplicate id on insert, non-live id on erase) never reach the log: the
// record is buffered but not committed until the inner scheduler accepts
// the request, and the inner scheduler's own precondition check throwing
// rolls it back out of the frame buffer (generic mode additionally gates
// on a mirrored live set, since an arbitrary inner scheduler's exception
// guarantees are unknown).
//
// Threading: single-caller discipline, like every scheduler here. For the
// sharded service's log see ShardedScheduler::Options::wal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/scheduler_options.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

class ReservationScheduler;

namespace durability {

class DurableScheduler final : public IReallocScheduler {
 public:
  using Factory = std::function<std::unique_ptr<IReallocScheduler>()>;

  /// Single-machine mode: generic mode over a ReservationScheduler factory
  /// — recovers (or cold-starts) from `policy.dir`, snapshots + WAL
  /// suffix, and resumes logging. The directory is created if missing.
  explicit DurableScheduler(DurabilityPolicy policy, SchedulerOptions options = {});

  /// Generic mode: the factory builds the inner scheduler (fresh), and
  /// recovery replays the whole surviving WAL through it. If the factory
  /// produces a ReservationScheduler, snapshots seed it and only the log
  /// suffix is replayed (detected at runtime); for anything else —
  /// e.g. ReallocatingScheduler's ShardedScheduler-backed pipeline —
  /// the tier is WAL-only and recovery cost grows with the log.
  DurableScheduler(DurabilityPolicy policy, const Factory& factory);

  ~DurableScheduler() override;

  RequestStats insert(JobId id, Window window) override;
  RequestStats erase(JobId id) override;
  BatchResult apply(std::span<const Request> batch) override;

  [[nodiscard]] Schedule snapshot() const override { return inner_->snapshot(); }
  [[nodiscard]] std::size_t active_jobs() const override {
    return inner_->active_jobs();
  }
  [[nodiscard]] unsigned machines() const override { return inner_->machines(); }
  [[nodiscard]] std::string name() const override;

  /// What construction-time recovery found (cold start: all zeros).
  [[nodiscard]] const RecoveryReport& recovery_report() const noexcept {
    return report_;
  }
  /// CSN of the last logged request (0 before any).
  [[nodiscard]] std::uint64_t csn() const noexcept { return csn_; }
  [[nodiscard]] const WalWriter::Stats& wal_stats() const noexcept {
    return wal_.stats();
  }
  [[nodiscard]] std::uint64_t snapshots_written() const noexcept {
    return snapshots_written_;
  }
  [[nodiscard]] const DurabilityPolicy& policy() const noexcept { return policy_; }

  [[nodiscard]] IReallocScheduler& inner() noexcept { return *inner_; }
  /// The inner ReservationScheduler, or nullptr in WAL-only generic mode.
  [[nodiscard]] ReservationScheduler* reservation() noexcept { return reservation_; }

  /// Flushes and fsyncs the log (everything logged so far is durable).
  void sync() { wal_.sync(); }
  /// sync() + an immediate snapshot when snapshot-capable and quiescent.
  /// Returns true when a snapshot was written.
  bool checkpoint();

 private:
  void seed_live_set();
  void maybe_snapshot(const RequestStats& stats);
  void write_snapshot_now();

  DurabilityPolicy policy_;
  RecoveryReport report_;
  std::unique_ptr<IReallocScheduler> inner_;
  ReservationScheduler* reservation_ = nullptr;
  WalWriter wal_;
  /// Live job ids — precondition gate in front of the log (see header
  /// comment). Generic mode only: in reservation mode the inner
  /// scheduler's own O(1) contains() answers, with no mirror to maintain
  /// on the hot path. Seeded from the recovered schedule.
  FlatHashSet<JobId> live_;
  std::uint64_t csn_ = 0;
  std::uint64_t snapshots_written_ = 0;
  bool snapshot_pending_ = false;
};

}  // namespace durability
}  // namespace reasched
