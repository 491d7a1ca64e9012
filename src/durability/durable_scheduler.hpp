// DurableScheduler: the single-machine durability front end (DESIGN.md §9).
//
// Wraps one ReservationScheduler with write-ahead logging and generation
// snapshots:
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
// rolls it back out of the frame buffer.
//
// Threading: single-caller discipline, like every scheduler here.
// Multi-machine logging is ShardedScheduler::Options::wal: one CSN-ordered
// log written by the sharded service and recovered through the same
// recover_log. Both writers produce byte-identical logs for the same
// request stream on one machine (tests/golden_digest_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/scheduler_options.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"

namespace reasched {

class ReservationScheduler;

namespace durability {

class DurableScheduler final : public IReallocScheduler {
 public:
  /// Recovers (or cold-starts) from `policy.dir` — newest loadable
  /// snapshot, then the WAL suffix — and resumes logging. The directory is
  /// created if missing.
  explicit DurableScheduler(DurabilityPolicy policy, SchedulerOptions options = {});

  ~DurableScheduler() override;

  RequestStats insert(JobId id, Window window) override;
  RequestStats erase(JobId id) override;
  BatchResult apply(std::span<const Request> batch) override;

  [[nodiscard]] Schedule snapshot() const override;
  [[nodiscard]] std::size_t active_jobs() const override;
  [[nodiscard]] unsigned machines() const override { return 1; }
  [[nodiscard]] std::string name() const override;

  /// What construction-time recovery found (cold start: all zeros).
  [[nodiscard]] const RecoveryReport& recovery_report() const noexcept {
    return report_;
  }
  /// CSN of the last logged request (0 before any).
  [[nodiscard]] std::uint64_t csn() const noexcept { return csn_; }
  [[nodiscard]] std::uint64_t snapshots_written() const noexcept {
    return snapshots_written_;
  }

  [[nodiscard]] ReservationScheduler& inner() noexcept { return *inner_; }

  /// Flushes and fsyncs the log (everything logged so far is durable).
  void sync() { wal_.sync(); }

 private:
  void maybe_snapshot(const RequestStats& stats);
  void write_snapshot_now();

  DurabilityPolicy policy_;
  RecoveryReport report_;
  std::unique_ptr<ReservationScheduler> inner_;
  WalWriter wal_;
  std::uint64_t csn_ = 0;
  std::uint64_t snapshots_written_ = 0;
  bool snapshot_pending_ = false;
};

}  // namespace durability
}  // namespace reasched
