// Sharded batch-scheduling service: the repository's one implementation of
// the §3 multi-machine → single-machine reduction.
//
// A ShardedScheduler owns one single-machine scheduler per machine and a
// ThreadPool (util/thread_pool.hpp) of shards - 1 workers; with the caller,
// `shards` threads run the apply phase. Delegation state is the reduction's
// own: one BalanceLedger, which is also the JobId → JobInfo directory,
// touched only by the caller thread.
//
// insert()/erase() are the sequential reduction, one request at a time:
// round-robin delegation per window, and on a delete at most one rebalance
// migration (Lemma 3). ReallocatingScheduler (service/
// reallocating_scheduler.hpp) serves the paper's pipeline through them
// with one shard and no WAL; the golden digests pin this path.
//
// apply(batch) serves a whole request batch in three phases:
//
//   1. scan (caller thread): validate every request's preconditions against
//      the job directory and cut the batch into maximal sub-batches; a cut
//      falls only where an insert reuses an id that still looks active
//      (a retry after a rejection the apply phase has yet to reveal).
//   2. plan (caller thread, batch order): append each request to the log,
//      commit its delegation decision — round-robin insert target, erase
//      rebalance migration — to the ledger, and append its machine
//      operations to the per-machine op lists, which are thereby already in
//      request order. Lemma 3 delegation is O(1) bookkeeping per request;
//      the per-machine schedulers are untouched.
//   3. apply (parallel over machines): each machine's op list runs as one
//      task. Per-request fixed costs are amortized: one pool fan-out per
//      batch, and audit cadence becomes per-batch instead of per-request
//      (EXPERIMENTS.md §E13).
//
// The apply fan-out is one ThreadPool::parallel_for over the machines that
// have work: the caller and the workers claim machines from one shared
// counter, so no machine has a home thread and a hotspot that skews ops
// toward a few machines spreads over whichever threads are free. Which
// thread runs a task never changes a result: each machine's op list is
// executed by exactly one thread, in order.
//
// Determinism: for a batch in which no insert is rejected, the resulting
// schedules, per-request stats, and ledger state are identical to feeding
// the same requests one at a time to insert()/erase(), for ANY shard
// count and batch size — the plan makes the sequential reduction's
// decisions in the sequential order, and every per-machine scheduler sees
// exactly the sequential order of its own operations (tested in
// tests/sharded_scheduler_test.cpp).
//
// Rejection handling: if a machine rejects an insert mid-batch
// (InfeasibleError), the optimistically applied sub-batch is rolled back
// (machine operations inverted in reverse order, ledger commits unwound in
// reverse by their inverse commits) and the sub-batch is replayed through
// the sequential per-request path (serve_request). The rolled-back machine state is
// *equivalent* (same job set, feasible, balance invariant intact) but —
// because per-machine
// placement is not history independent (see bench_e8) — not necessarily
// bit-identical to the pre-batch state, so after a batch WITH rejections,
// placements and stats may differ from a never-batched run in internal
// detail; rejected requests are reported in BatchResult::rejected, never
// thrown. Note the default pipeline (ReservationScheduler under
// OverflowPolicy::kBestEffort) parks instead of rejecting, so this path
// never fires there.
//
// Precondition violations: the scan checks each sub-batch just before that
// sub-batch is planned and applied, so a ContractViolation raised in a
// later sub-batch leaves every earlier sub-batch applied and, with a WAL,
// appended to the log; the throw carries no BatchResult for them. Their
// records stay buffered until the next request's frame is cut or the
// service is destroyed. Nothing from the violating sub-batch on is
// applied or logged, so state and log agree: csn() and active_jobs()
// report the applied prefix, and a reopened service recovers exactly it.
//
// Threading: the public entry points follow the repository-wide
// single-caller discipline; all parallelism is internal to apply(). Each
// per-machine scheduler — and therefore each per-level interval arena it
// owns (util/arena.hpp) and any in-flight partitioned-rebuild generation —
// is touched by exactly one task of the apply phase, which is joined
// before apply() returns; the ledger is never touched off the caller
// thread. Nothing is locked (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/balance_ledger.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "schedule/scheduler_interface.hpp"
#include "telemetry/options.hpp"
#include "util/flat_hash.hpp"
#include "util/thread_pool.hpp"

namespace reasched {

class ShardedScheduler final : public IReallocScheduler {
 public:
  using Factory = std::function<std::unique_ptr<IReallocScheduler>()>;

  struct Options {
    /// Threads that run the apply phase: the caller plus shards - 1 pool
    /// workers. Clamped to [1, machines]; 1 runs every task on the caller.
    unsigned shards = 1;
    /// Durability tier (DESIGN.md §9), the repository's one durable front
    /// end (one machine is m = 1): when set, every request is appended
    /// write-ahead, in CSN order on the caller thread, to the single log
    /// wal->dir/wal-000.log, after every precondition check. Snapshots
    /// (wal->snapshot_every / snapshot_on_flip; a flip is any machine's
    /// request with `rebuilt` set) hold every machine's SchedulerPersist
    /// image and the BalanceLedger at one CSN; a due snapshot is written
    /// at the first request or batch boundary at which no machine has a
    /// migration in flight, and asking for snapshots requires
    /// ReservationScheduler machines. *Construction is recovery*: the
    /// newest loadable snapshot, each attempt on fresh machines from the
    /// factory, then durability::recover_log replays the log suffix
    /// through apply() in batches, on the `shards` threads, before any
    /// new request is accepted.
    /// BatchResult::first_csn / last_csn report each batch's CSN range.
    std::optional<durability::DurabilityPolicy> wal;
    /// Runtime gate for the telemetry tier (src/telemetry/, DESIGN.md §10):
    /// construction flips the process-wide recording switches (turn-on
    /// only). The pipeline spans (svc.scan/svc.plan/svc.apply) and every
    /// per-machine scheduler's record sites then feed
    /// telemetry::Registry::global().
    telemetry::TelemetryOptions telemetry;
  };

  ShardedScheduler(unsigned machines, const Factory& factory, Options options);
  ShardedScheduler(unsigned machines, const Factory& factory)
      : ShardedScheduler(machines, factory, Options{}) {}

  RequestStats insert(JobId id, Window window) override;
  RequestStats erase(JobId id) override;
  /// Serves `batch` in sub-batches (header comment). Throws
  /// ContractViolation at the first precondition violation, with the
  /// earlier sub-batches already applied and logged.
  BatchResult apply(std::span<const Request> batch) override;
  /// Every machine's window preconditions: apply() checks them before the
  /// plan picks the machine.
  void check_window(Window window) const override;

  [[nodiscard]] Schedule snapshot() const override;
  [[nodiscard]] std::size_t active_jobs() const override { return ledger_.jobs(); }
  [[nodiscard]] unsigned machines() const override {
    return static_cast<unsigned>(machines_.size());
  }
  [[nodiscard]] unsigned shards() const noexcept { return shards_; }
  /// Apply tasks (one machine's op list each) the calling thread ran while
  /// the pool had workers to share them with (monotone; 0 when shards == 1,
  /// where the caller runs every task). Caller thread only.
  [[nodiscard]] std::uint64_t steal_count() const noexcept { return caller_tasks_; }
  [[nodiscard]] std::string name() const override;

  /// Balancing invariant check (Lemma 3); throws InternalError on violation.
  void audit_balance() const { ledger_.audit(); }

  /// Incremental balance audit: re-verifies only windows whose delegation
  /// state changed since the last call (see BalanceLedger::audit_incremental).
  /// Returns the number of windows verified.
  std::size_t audit_balance_incremental() { return ledger_.audit_incremental(); }

  /// Registers the service's Lemma 3 check ("svc.L3.balance-shares").
  void register_invariants(audit::InvariantTable& table) const {
    ledger_.register_invariants(table);
  }

  /// Deliberate ledger corruption for the differential audit tests
  /// (desyncs one window's share sets); both audit_balance and
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
  /// One machine-level operation planned for a batch; the machine is the
  /// index of the op list that holds it.
  struct Op {
    RequestKind kind = RequestKind::kInsert;
    std::uint32_t request = 0;  // batch index
    JobId job;
    Window window;
    RequestStats stats;  // filled during the apply phase
  };

  /// One committed ledger mutation, recorded for rollback.
  struct LedgerRecord {
    enum Kind : std::uint8_t { kInsert, kErase, kMigration } kind = kInsert;
    JobId job;  // for kMigration: the moved job
    Window window;          // erase only
    MachineId machine = 0;  // erase: delegated machine; migration: donor
  };

  enum Status : std::uint8_t { kServed = 0, kRejected = 1 };

  /// Fresh machines from `factory`, with an empty ledger.
  void build_machines(unsigned machines, const Factory& factory);

  /// Assigns the next CSN and appends the request's record to the log,
  /// write-ahead on the caller thread. No-op while logging is suspended
  /// (recovery replay, sub-batch sequential re-run).
  void log_request(RequestKind kind, JobId id, Window window);

  /// The snapshot trigger at a request or batch boundary; `flipped` when
  /// one of its requests had `rebuilt` set.
  void maybe_snapshot(bool flipped);
  void save_state(durability::ByteSink& out) const;
  /// Loads save_state()'s bytes into fresh machines; throws CorruptInput.
  void load_state(durability::ByteSource& in);

  std::size_t scan_subbatch(std::span<const Request> batch, std::size_t first,
                            std::vector<std::uint8_t>& status,
                            FlatHashSet<JobId>& rejected_ids);
  void apply_subbatch(std::span<const Request> batch, std::size_t first,
                      std::size_t end, std::vector<std::uint8_t>& status,
                      std::vector<RequestStats>& stats,
                      FlatHashSet<JobId>& rejected_ids);
  void rollback_subbatch(const std::vector<LedgerRecord>& log,
                         const std::vector<std::vector<Op>>& machine_ops,
                         const std::vector<std::size_t>& applied);
  void replay_subbatch(std::span<const Request> batch, std::size_t first,
                       std::size_t end, std::vector<std::uint8_t>& status,
                       std::vector<RequestStats>& stats,
                       FlatHashSet<JobId>& rejected_ids);

  std::vector<std::unique_ptr<IReallocScheduler>> machines_;
  unsigned shards_ = 1;
  BalanceLedger ledger_;
  ThreadPool pool_;                 // shards_ - 1 workers
  std::uint64_t caller_tasks_ = 0;  // steal_count()
  std::string label_;

  // Durability tier (closed/zero when Options::wal is unset).
  durability::DurabilityPolicy policy_{};
  durability::WalWriter wal_;
  durability::RecoveryReport recovery_report_{};
  std::uint64_t csn_ = 0;
  std::uint64_t snapshot_csn_ = 0;  // of the last snapshot written or loaded
  bool wal_logging_ = false;
  bool snapshots_ = false;  // the policy asks for snapshots
  bool flip_due_ = false;   // a flip snapshot waits for quiescence
};

}  // namespace reasched
