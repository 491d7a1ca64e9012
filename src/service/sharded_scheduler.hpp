// Sharded batch-scheduling service (service layer over the §3 reduction).
//
// A ShardedScheduler owns the same per-machine single-machine schedulers as
// MultiMachineScheduler, partitioned into contiguous *shards* of machines;
// shard k's *home* worker is the caller for k = 0 and pool worker k - 1 of
// a ShardedThreadPool otherwise. The balancer ledger is striped
// (service/striped_ledger.hpp) so delegation decisions for different
// windows proceed concurrently.
//
// apply(batch) serves a whole request batch in three phases:
//
//   1. scan (caller thread): resolve every delete to its window via the job
//      directory, validate preconditions, and cut the batch into maximal
//      sub-batches within which no job id is reused under a different
//      window (so each job's requests stay inside one window stripe).
//   2. plan (parallel over window stripes): commit every delegation
//      decision — round-robin insert targets, erase rebalance migrations —
//      to the striped ledger, emitting per-machine operation lists. The
//      per-machine schedulers are untouched; Lemma 3's independence means
//      the decisions depend only on the ledger.
//   3. apply (parallel over machines): each machine's operation list,
//      sorted into request order, runs as one task. Per-request fixed costs
//      are amortized: one pool handoff per machine per batch, and audit
//      cadence becomes per-batch instead of per-request (EXPERIMENTS.md
//      §E13).
//
// Both fan-outs submit *stealable* tasks (ShardedThreadPool::
// submit_stealable) — plan per stripe, apply per machine, each homed on its
// owning shard's worker — so an idle worker, or the calling thread, helps a
// backlogged sibling when hotspot placement skews ops toward one
// contiguous machine→shard range. Which thread runs a task never changes a
// result: each stripe's plan and each machine's op list is executed by
// exactly one thread, in order, and Lemma 3 delegation does not depend on
// which thread commits it.
//
// Determinism: for a batch in which no insert is rejected, the resulting
// schedules, per-request stats, and ledger state are identical to feeding
// the same requests one at a time to MultiMachineScheduler, for ANY shard
// and stripe count — delegation is fixed by the round-robin rule and every
// per-machine scheduler sees exactly the sequential order of its own
// operations (tested in tests/sharded_scheduler_test.cpp).
//
// Rejection handling: if a machine rejects an insert mid-batch
// (InfeasibleError), the optimistically applied sub-batch is rolled back
// (machine operations inverted in reverse order, ledger commits unwound)
// and the sub-batch is replayed through the sequential per-request path.
// The rolled-back machine state is *equivalent* (same job set, feasible,
// balance invariant intact) but — because per-machine placement is not
// history independent (see bench_e8) — not necessarily bit-identical to
// the pre-batch state, so after a batch WITH rejections, placements and
// stats may differ from a never-batched run in internal detail; rejected
// requests are reported in BatchResult::rejected, never thrown. Note the
// default pipeline (ReservationScheduler under OverflowPolicy::kBestEffort)
// parks instead of rejecting, so this path never fires there.
//
// Threading: the public entry points follow the repository-wide
// single-caller discipline; all parallelism is internal to apply().
// Each per-machine scheduler — and therefore each per-level interval
// arena it owns (util/arena.hpp) and any in-flight partitioned-rebuild
// generation — is touched by exactly one task per batch phase, and the
// phases are joined, so that state needs no locking (DESIGN.md §6); only
// the striped ledger is shared, behind its stripe locks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "schedule/scheduler_interface.hpp"
#include "service/striped_ledger.hpp"
#include "telemetry/options.hpp"
#include "util/flat_hash.hpp"
#include "util/thread_pool.hpp"

namespace reasched {

class ShardedScheduler final : public IReallocScheduler {
 public:
  using Factory = std::function<std::unique_ptr<IReallocScheduler>()>;

  struct Options {
    /// Worker shards; clamped to [1, machines]. Shard k owns the contiguous
    /// machine range [k·m/S, (k+1)·m/S).
    unsigned shards = 1;
    /// Ledger stripes (rounded up to a power of two). 0 = auto:
    /// max(16, 4·shards), enough that concurrent planners rarely collide.
    std::size_t stripes = 0;
    /// Durability tier (DESIGN.md §9): when set, every request is appended
    /// write-ahead, in CSN order on the caller thread, to the single log
    /// wal->dir/wal-000.log, and *construction is recovery* — the log's
    /// intact prefix is replayed through the sequential request path by
    /// durability::recover_log (DurableScheduler's routine) before any new
    /// request is accepted. BatchResult::first_csn / last_csn report each
    /// batch's CSN range. Snapshots are not taken at this layer
    /// (per-machine generation boundaries are not service-wide quiescent
    /// points); recovery cost grows with the log.
    std::optional<durability::DurabilityPolicy> wal;
    /// Runtime gate for the telemetry tier (src/telemetry/, DESIGN.md §10):
    /// construction flips the process-wide recording switches (turn-on
    /// only). The pipeline spans (svc.scan/svc.plan/svc.apply), per-shard
    /// queue-depth gauges, and every per-machine scheduler's record sites
    /// then feed telemetry::Registry::global().
    telemetry::TelemetryOptions telemetry;
  };

  ShardedScheduler(unsigned machines, const Factory& factory, Options options);
  ShardedScheduler(unsigned machines, const Factory& factory)
      : ShardedScheduler(machines, factory, Options{}) {}

  RequestStats insert(JobId id, Window window) override;
  RequestStats erase(JobId id) override;
  BatchResult apply(std::span<const Request> batch) override;

  [[nodiscard]] Schedule snapshot() const override;
  [[nodiscard]] std::size_t active_jobs() const override {
    return ledger_.active_jobs();
  }
  [[nodiscard]] unsigned machines() const override {
    return static_cast<unsigned>(machines_.size());
  }
  [[nodiscard]] unsigned shards() const noexcept { return shards_; }
  /// Stealable tasks executed off their home worker so far (monotone; 0
  /// when shards == 1, where every task runs inline on the caller).
  [[nodiscard]] std::uint64_t steal_count() const noexcept { return pool_.steals(); }
  [[nodiscard]] std::string name() const override;

  /// Balancing invariant check (Lemma 3) over every ledger stripe; throws
  /// InternalError on violation.
  void audit_balance() const { ledger_.audit(); }

  /// Incremental balance audit: every stripe re-verifies only the windows
  /// whose delegation state changed since that stripe's last audit, and the
  /// stripes are fanned out as stealable tasks (stripe i homed on shard
  /// i mod shards), so shards audit concurrently — each stripe check takes
  /// only its own stripe lock. First call per stripe is a full
  /// sweep of that stripe (dirty tracking starts then). Returns the number
  /// of windows verified. Throws InternalError on violation.
  std::size_t audit_balance_incremental();

  /// Registers this service's invariant checks: one Lemma 3 unit per
  /// ledger stripe (see StripedLedger::register_invariants).
  void register_invariants(audit::InvariantTable& table) const {
    ledger_.register_invariants(table);
  }

  /// Deliberate ledger corruption for the differential audit tests
  /// (desyncs one stripe's share sets); both audit_balance and
  /// audit_balance_incremental must flag it. Returns false when the ledger
  /// holds no movable job.
  bool corrupt_balance_for_test() { return ledger_.corrupt_for_test(); }

  // ---- durability tier (Options::wal) ----

  /// What construction-time recovery found; all zeros when Options::wal is
  /// unset or the directory was fresh.
  [[nodiscard]] const durability::RecoveryReport& recovery_report() const noexcept {
    return recovery_report_;
  }
  /// CSN of the last logged request (0 when no WAL is attached).
  [[nodiscard]] std::uint64_t csn() const noexcept { return csn_; }
  /// Flushes and fsyncs the log (no-op when no WAL is attached).
  void sync_wal();

 private:
  /// One machine-level operation planned for a batch.
  struct Op {
    RequestKind kind = RequestKind::kInsert;
    std::uint8_t role = 0;  // 0 primary, 1 donor-erase, 2 migration-insert
    MachineId machine = 0;
    std::uint32_t request = 0;  // batch index
    JobId job;
    Window window;
    RequestStats stats;  // filled during the apply phase
  };

  /// One committed ledger mutation, recorded for rollback.
  struct LedgerRecord {
    enum Kind : std::uint8_t { kInsert, kErase, kMigration } kind = kInsert;
    JobId job;  // for kMigration: the moved job
    Window window;
    MachineId machine = 0;  // insert/erase: delegated machine; migration: dest
    MachineId donor = 0;    // migration only
  };

  struct PlanOutput {
    std::vector<Op> ops;
    std::vector<LedgerRecord> log;
  };

  struct Resolved {
    Window window;
    std::uint32_t stripe = 0;
  };

  enum Status : std::uint8_t { kServed = 0, kRejected = 1 };

  /// Runs task(t) for t in [0, count) as stealable pool tasks
  /// (home_shard[t] names each task's preferred shard); the caller lends
  /// its own cycles via try_run_stealable while it waits. Joins all before
  /// returning. With one shard the pool has no worker, so the tasks run
  /// inline on the caller in index order.
  void run_stealable(std::size_t count, const std::vector<unsigned>& home_shard,
                     const std::function<void(std::size_t)>& task);

  /// Assigns the next CSN and appends the request's record to the log,
  /// write-ahead on the caller thread. No-op while logging is suspended
  /// (recovery replay, sub-batch sequential re-run).
  void log_request(RequestKind kind, JobId id, Window window);

  std::size_t scan_subbatch(std::span<const Request> batch, std::size_t first,
                            std::vector<Resolved>& resolved,
                            std::vector<std::uint8_t>& status,
                            FlatHashSet<JobId>& rejected_ids);
  void apply_subbatch(std::span<const Request> batch, std::size_t first,
                      std::size_t end, const std::vector<Resolved>& resolved,
                      std::vector<std::uint8_t>& status,
                      std::vector<RequestStats>& stats,
                      FlatHashSet<JobId>& rejected_ids);
  void rollback_subbatch(const std::vector<PlanOutput>& plans,
                         const std::vector<std::vector<Op>>& machine_ops,
                         const std::vector<std::size_t>& applied);
  void replay_subbatch(std::span<const Request> batch, std::size_t first,
                       std::size_t end, const std::vector<Resolved>& resolved,
                       std::vector<std::uint8_t>& status,
                       std::vector<RequestStats>& stats,
                       FlatHashSet<JobId>& rejected_ids);

  std::vector<std::unique_ptr<IReallocScheduler>> machines_;
  unsigned shards_ = 1;
  StripedLedger ledger_;
  std::vector<unsigned> shard_begin_;  // size shards_+1: machine range bounds
  ShardedThreadPool pool_;
  std::string label_;

  // Durability tier (closed/zero when Options::wal is unset).
  durability::WalWriter wal_;
  durability::RecoveryReport recovery_report_{};
  std::uint64_t csn_ = 0;
  bool wal_logging_ = false;
};

}  // namespace reasched
