#include "service/sharded_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/reservation_scheduler.hpp"
#include "durability/crashpoint.hpp"
#include "durability/scheduler_persist.hpp"
#include "durability/snapshot.hpp"
#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace reasched {

namespace {

unsigned clamp_shards(unsigned shards, unsigned machines) {
  return std::min(std::max(shards, 1u), std::max(machines, 1u));
}

// Leads every service snapshot payload; bumped on any change to its layout.
constexpr std::uint64_t kServiceSnapshotMagic = 0x3130304356535352ULL;  // "RSSVC001"

}  // namespace

ShardedScheduler::ShardedScheduler(unsigned machines, const Factory& factory,
                                   Options options)
    : shards_(clamp_shards(options.shards, machines)), pool_(shards_ - 1) {
  RS_REQUIRE(machines >= 1, "ShardedScheduler: need at least one machine");
  telemetry::enable(options.telemetry);
  build_machines(machines, factory);
  label_ = "sharded[s=" + std::to_string(shards_) + "," + std::to_string(machines) +
           "x " + machines_.front()->name() + "]";
  if (!options.wal) return;
  policy_ = std::move(*options.wal);
  const bool snapshots = policy_.snapshot_every > 0 || policy_.snapshot_on_flip;
  for (const auto& machine : machines_) {
    RS_REQUIRE(!snapshots || dynamic_cast<ReservationScheduler*>(machine.get()),
               "ShardedScheduler: snapshots need ReservationScheduler machines");
  }
  // Construction is recovery: the newest snapshot that loads, each attempt
  // on fresh machines, then the log suffix. The replay runs through
  // apply() in batches, so it uses the scan/plan/apply fan-out; logging is
  // still off, so it does not re-log. Delegation is deterministic, so the
  // recovered service matches a twin that served exactly the surviving
  // log one request at a time.
  for (const std::uint64_t csn : durability::list_snapshots(policy_.dir)) {
    if (durability::load_snapshot(durability::snapshot_path(policy_.dir, csn),
                                  [this](durability::ByteSource& in) { load_state(in); })) {
      recovery_report_.snapshot_csn = csn;
      recovery_report_.last_csn = csn;
      break;
    }
    ++recovery_report_.snapshots_skipped;
    build_machines(machines, factory);
  }
  durability::recover_log(policy_, *this, recovery_report_, wal_);
  csn_ = recovery_report_.last_csn;
  snapshot_csn_ = recovery_report_.snapshot_csn;
  wal_logging_ = true;
  snapshots_ = snapshots;
}

void ShardedScheduler::build_machines(unsigned machines, const Factory& factory) {
  machines_.clear();
  machines_.reserve(machines);
  for (unsigned i = 0; i < machines; ++i) {
    auto scheduler = factory();
    RS_REQUIRE(scheduler != nullptr, "ShardedScheduler: factory returned null");
    RS_REQUIRE(scheduler->machines() == 1,
               "ShardedScheduler: inner schedulers must be single-machine");
    machines_.push_back(std::move(scheduler));
  }
  ledger_ = BalanceLedger(machines);
}

// ---------------------------------------------------------- durability tier

void ShardedScheduler::log_request(RequestKind kind, JobId id, Window window) {
  if (!wal_logging_) return;
  ++csn_;
  RS_TELEM_SET_CSN(csn_);
  wal_.append(kind == RequestKind::kInsert ? durability::WalRecord::insert(csn_, id, window)
                                           : durability::WalRecord::erase(csn_, id));
}

void ShardedScheduler::sync_wal() {
  if (wal_.is_open()) wal_.sync();
}

void ShardedScheduler::maybe_snapshot(bool flipped) {
  flip_due_ = flip_due_ || (flipped && policy_.snapshot_on_flip);
  const bool cadence_due =
      policy_.snapshot_every > 0 && csn_ - snapshot_csn_ >= policy_.snapshot_every;
  if (!flip_due_ && !cadence_due) return;
  // SchedulerPersist::save needs a quiescent machine: a due snapshot waits
  // for the first boundary at which no machine has a migration in flight.
  for (const auto& machine : machines_) {
    if (dynamic_cast<const ReservationScheduler&>(*machine).rebuild_in_flight()) return;
  }
  RS_TELEM_DURATION(kSnapshotHist, "wal.snapshot");
  RS_TELEM_SPAN(snapshot_span, kSnapshotHist, "wal.snapshot");
  // The log must be durable through csn_ before a snapshot claims that
  // CSN — otherwise a crash right after the snapshot could recover state
  // the (shorter) log can no longer extend consistently.
  wal_.sync();
  if (flip_due_ && durability::CrashPoint::due("flip")) {
    // Fault injection: die after the flip's request and its log record but
    // before the flip snapshot — recovery must come up from the previous
    // snapshot plus the full surviving suffix.
    durability::CrashPoint::die();
  }
  durability::write_snapshot(
      policy_.dir, csn_, [this](durability::ByteSink& out) { save_state(out); }, policy_);
  snapshot_csn_ = csn_;
  flip_due_ = false;
}

// Payload: magic | machine count u32 | per machine, its SchedulerPersist
// image as u64 length + bytes | the BalanceLedger, whose job directory is
// rebuilt from its pools on load rather than stored.
void ShardedScheduler::save_state(durability::ByteSink& out) const {
  out.u64(kServiceSnapshotMagic);
  out.u32(static_cast<std::uint32_t>(machines_.size()));
  for (const auto& machine : machines_) {
    durability::ByteSink image;
    durability::SchedulerPersist::save(dynamic_cast<const ReservationScheduler&>(*machine),
                                       image);
    out.u64(image.size());
    out.byte_block(image.bytes().data(), image.size());
  }
  ledger_.serialize(out);
}

void ShardedScheduler::load_state(durability::ByteSource& in) {
  using durability::CorruptInput;
  if (in.u64() != kServiceSnapshotMagic) throw CorruptInput("snapshot: bad service magic");
  if (in.u32() != machines_.size()) throw CorruptInput("snapshot: machine count mismatch");
  std::vector<const ReservationScheduler*> loaded;
  for (const auto& machine : machines_) {
    auto* persisted = dynamic_cast<ReservationScheduler*>(machine.get());
    if (persisted == nullptr) throw CorruptInput("snapshot: machine cannot load an image");
    durability::ByteSource image = in.sub(in.u64());
    durability::SchedulerPersist::load(*persisted, image);
    loaded.push_back(persisted);
  }
  ledger_.deserialize(in);
  if (!in.exhausted()) throw CorruptInput("snapshot: trailing bytes");
  durability::audit_decoded("snapshot: ledger fails the audit", [this] { ledger_.audit(); });
  // No audit sees both the ledger and the machines: every ledger pool must
  // be exactly its machine's job set, windows included (each id, unique
  // since deserialize, held by its machine; per-machine counts equal).
  std::vector<std::size_t> delegated(machines_.size(), 0);
  ledger_.for_each_job([&](JobId id, const Window& window, MachineId machine) {
    if (!durability::SchedulerPersist::holds(*loaded[machine], id, window)) {
      throw CorruptInput("snapshot: ledger disagrees with machine " +
                         std::to_string(machine));
    }
    ++delegated[machine];
  });
  for (std::size_t machine = 0; machine < machines_.size(); ++machine) {
    if (delegated[machine] != machines_[machine]->active_jobs()) {
      throw CorruptInput("snapshot: ledger disagrees with machine " +
                         std::to_string(machine));
    }
  }
}

std::string ShardedScheduler::name() const { return label_; }

// ---------------------------------------------------------- sequential path

void ShardedScheduler::check_window(Window window) const {
  for (const auto& machine : machines_) machine->check_window(window);
}

RequestStats ShardedScheduler::insert(JobId id, Window window) {
  const MachineId machine = ledger_.plan_insert(window);
  // Every precondition is checked before the record is logged.
  machines_[machine]->check_window(window);
  RS_REQUIRE(!ledger_.contains(id), "ShardedScheduler::insert: id already active");
  // Write-ahead; a rejection replays as a rejection.
  log_request(RequestKind::kInsert, id, window);

  // The ledger commits only after the machine accepted, so a rejected
  // insert leaves no trace.
  const RequestStats stats = machines_[machine]->insert(id, window);
  ledger_.commit_insert(id, window, machine);
  if (snapshots_ && wal_logging_) maybe_snapshot(stats.rebuilt);
  return stats;
}

RequestStats ShardedScheduler::erase(JobId id) {
  const JobInfo* info = ledger_.find(id);
  RS_REQUIRE(info != nullptr, "ShardedScheduler::erase: id not active");
  const Window window = info->window;
  const MachineId machine = info->machine;
  log_request(RequestKind::kDelete, id, window);  // write-ahead

  // Rebalance: the latest-extra machine donates one W-job to the machine
  // that lost one — the single migration Theorem 1 allows per request.
  const BalanceLedger::Migration migration = ledger_.plan_erase(window, machine);
  RequestStats stats = machines_[machine]->erase(id);
  ledger_.commit_erase(id);

  if (migration.needed) {
    stats += machines_[migration.donor]->erase(migration.moved);
    try {
      stats += machines_[machine]->insert(migration.moved, window);
    } catch (...) {
      // Restore the donor's copy so the schedule stays complete, then
      // propagate the failure.
      machines_[migration.donor]->insert(migration.moved, window);
      throw;
    }
    ledger_.commit_migration(migration.moved, machine);
    ++stats.reallocations;
    ++stats.migrations;
  }
  if (snapshots_ && wal_logging_) maybe_snapshot(stats.rebuilt);
  return stats;
}

Schedule ShardedScheduler::snapshot() const {
  Schedule out(machines());
  for (unsigned machine = 0; machine < machines_.size(); ++machine) {
    const Schedule inner = machines_[machine]->snapshot();
    for (const auto& [job, placement] : inner.assignments()) {
      out.assign(job, Placement{static_cast<MachineId>(machine), placement.slot});
    }
  }
  return out;
}

// --------------------------------------------------------------- batch path

BatchResult ShardedScheduler::apply(std::span<const Request> batch) {
  BatchResult result;
  result.stats.resize(batch.size());
  if (batch.empty()) return result;

  std::vector<std::uint8_t> status(batch.size(), kServed);
  FlatHashSet<JobId> rejected_ids;

  const std::uint64_t start_csn = csn_;
  std::size_t first = 0;
  while (first < batch.size()) {
    std::size_t end;
    {
      RS_TELEM_DURATION(kScanHist, "svc.scan");
      RS_TELEM_SPAN(scan_span, kScanHist, "svc.scan");
      end = scan_subbatch(batch, first, status, rejected_ids);
    }
    // Write-ahead on the caller thread, in batch order, before the
    // sub-batch is planned: CSNs are assigned here, so the log holds
    // exactly this sequential order.
    for (std::size_t i = first; i < end; ++i) {
      if (status[i] == kRejected) continue;  // moot delete: no CSN, no record
      log_request(batch[i].kind, batch[i].job, batch[i].window);
    }
    apply_subbatch(batch, first, end, status, result.stats, rejected_ids);
    first = end;
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (status[i] == kRejected) {
      result.rejected.push_back(static_cast<std::uint32_t>(i));
    } else {
      result.total += result.stats[i];
    }
  }
  if (csn_ > start_csn) {
    result.first_csn = start_csn + 1;
    result.last_csn = csn_;
  }
  wal_.flush();  // batch boundary = frame boundary
  if (snapshots_) maybe_snapshot(result.total.rebuilt);
  return result;
}

std::size_t ShardedScheduler::scan_subbatch(std::span<const Request> batch,
                                            std::size_t first,
                                            std::vector<std::uint8_t>& status,
                                            FlatHashSet<JobId>& rejected_ids) {
  // Batch-local view of every id touched since `first`: whether it is
  // (optimistically) active.
  FlatHashMap<JobId, bool> active;

  std::size_t i = first;
  for (; i < batch.size(); ++i) {
    const Request& request = batch[i];
    const bool* entry = active.find(request.job);
    if (request.kind == RequestKind::kInsert) {
      // Every machine's window preconditions, before any CSN or ledger
      // commit: the plan picks the machine only later.
      check_window(request.window);
      if (entry != nullptr) {
        // Id already touched in this sub-batch. If it still looks active,
        // this insert is either a genuine double insert or a legal retry
        // after an insert that the apply phase will reject — only applying
        // the sub-batch can tell, so cut here and let the next scan judge
        // against the real directory.
        if (*entry) break;
      } else {
        RS_REQUIRE(!ledger_.contains(request.job),
                   "ShardedScheduler::apply: insert of an active id");
      }
      rejected_ids.erase(request.job);  // id may be reused after a rejection
      active.insert_or_assign(request.job, true);
    } else {
      if (entry != nullptr) {
        RS_REQUIRE(*entry, "ShardedScheduler::apply: erase of an inactive id");
      } else if (!ledger_.contains(request.job)) {
        // A job whose insert was rejected never entered the scheduler; its
        // delete is moot. Any other unknown id is a caller error.
        RS_REQUIRE(rejected_ids.contains(request.job),
                   "ShardedScheduler::apply: erase of an unknown id");
        rejected_ids.erase(request.job);
        status[i] = kRejected;
        continue;
      }
      active.insert_or_assign(request.job, false);
    }
  }
  RS_CHECK(i > first, "ShardedScheduler::apply: empty sub-batch");
  return i;
}

void ShardedScheduler::apply_subbatch(std::span<const Request> batch,
                                      std::size_t first, std::size_t end,
                                      std::vector<std::uint8_t>& status,
                                      std::vector<RequestStats>& stats,
                                      FlatHashSet<JobId>& rejected_ids) {
  // ---- plan (caller thread, batch order) ----
  // Commit every delegation decision to the ledger and append the machine
  // ops straight to their machine's list, which planning in batch order
  // leaves in sequential request order.
  std::vector<std::vector<Op>> machine_ops(machines_.size());
  std::vector<LedgerRecord> log;
  {
    RS_TELEM_DURATION(kPlanHist, "svc.plan");
    RS_TELEM_SPAN(plan_span, kPlanHist, "svc.plan");
    for (std::size_t i = first; i < end; ++i) {
      if (status[i] == kRejected) continue;  // moot delete
      const Request& request = batch[i];
      const auto index = static_cast<std::uint32_t>(i);
      if (request.kind == RequestKind::kInsert) {
        const MachineId machine = ledger_.plan_insert(request.window);
        ledger_.commit_insert(request.job, request.window, machine);
        machine_ops[machine].push_back(
            Op{RequestKind::kInsert, index, request.job, request.window, {}});
        log.push_back(LedgerRecord{LedgerRecord::kInsert, request.job, {}, 0});
        continue;
      }
      const JobInfo* info = ledger_.find(request.job);
      RS_CHECK(info != nullptr, "ShardedScheduler::apply: planned erase lost its job");
      const Window window = info->window;
      const MachineId machine = info->machine;
      const BalanceLedger::Migration migration = ledger_.plan_erase(window, machine);
      ledger_.commit_erase(request.job);
      machine_ops[machine].push_back(
          Op{RequestKind::kDelete, index, request.job, window, {}});
      log.push_back(LedgerRecord{LedgerRecord::kErase, request.job, window, machine});
      if (migration.needed) {
        ledger_.commit_migration(migration.moved, machine);
        machine_ops[migration.donor].push_back(
            Op{RequestKind::kDelete, index, migration.moved, window, {}});
        machine_ops[machine].push_back(
            Op{RequestKind::kInsert, index, migration.moved, window, {}});
        log.push_back(
            LedgerRecord{LedgerRecord::kMigration, migration.moved, {}, migration.donor});
        // The §3 rebalance migration itself, exactly as the sequential
        // reduction accounts it.
        ++stats[i].reallocations;
        ++stats[i].migrations;
      }
    }
  }

  // ---- apply: execute the per-machine op lists ----
  // Each machine's list runs on exactly one thread, in order. The caller
  // and the pool's workers claim machines from one shared counter, so a
  // hotspot's machines spread over whichever threads are free.
  std::vector<std::size_t> applied(machines_.size(), 0);
  std::atomic<bool> failed{false};
  std::vector<unsigned> work_machines;
  for (unsigned machine = 0; machine < machines_.size(); ++machine) {
    if (!machine_ops[machine].empty()) work_machines.push_back(machine);
  }
  const std::size_t ran = pool_.parallel_for(work_machines.size(), [&](std::size_t w) {
    RS_TELEM_DURATION(kApplyHist, "svc.apply");
    RS_TELEM_SPAN(apply_span, kApplyHist, "svc.apply");
    const unsigned machine = work_machines[w];
    std::vector<Op>& ops = machine_ops[machine];
    for (std::size_t k = 0; k < ops.size(); ++k) {
      if (failed.load(std::memory_order_relaxed)) return;
      Op& op = ops[k];
      if (op.kind == RequestKind::kInsert) {
        try {
          op.stats = machines_[machine]->insert(op.job, op.window);
        } catch (const InfeasibleError&) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      } else {
        op.stats = machines_[machine]->erase(op.job);
      }
      applied[machine] = k + 1;
    }
  });
  if (pool_.size() > 0) caller_tasks_ += ran;  // see steal_count()

  if (failed.load()) {
    // Rare path: a machine rejected an optimistically planned insert. Undo
    // the whole sub-batch and replay it through the exact sequential
    // per-request path, which reproduces sequential rejection semantics.
    // The sub-batch was already logged before the plan, so logging is
    // suspended for the re-run — the log keeps the original records, and
    // recovery's replay re-derives the same rejections deterministically.
    rollback_subbatch(log, machine_ops, applied);
    const bool was_logging = wal_logging_;
    wal_logging_ = false;
    try {
      replay_subbatch(batch, first, end, status, stats, rejected_ids);
    } catch (...) {
      wal_logging_ = was_logging;
      throw;
    }
    wal_logging_ = was_logging;
    return;
  }

  // ---- merge: per-request stats from the per-op stats ----
  for (const auto& ops : machine_ops) {
    for (const Op& op : ops) stats[op.request] += op.stats;
  }
}

void ShardedScheduler::rollback_subbatch(
    const std::vector<LedgerRecord>& log,
    const std::vector<std::vector<Op>>& machine_ops,
    const std::vector<std::size_t>& applied) {
  // Machine state: invert every applied op in reverse per-machine order.
  // Machines are independent, so per-machine reversal suffices.
  try {
    for (std::size_t machine = 0; machine < machine_ops.size(); ++machine) {
      const std::vector<Op>& ops = machine_ops[machine];
      for (std::size_t k = applied[machine]; k-- > 0;) {
        const Op& op = ops[k];
        if (op.kind == RequestKind::kInsert) {
          machines_[machine]->erase(op.job);
        } else {
          machines_[machine]->insert(op.job, op.window);
        }
      }
    }
  } catch (...) {
    RS_CHECK(false, "ShardedScheduler::apply: batch rollback failed");
  }

  // Ledger: unwind every commit in reverse plan order by its inverse.
  for (std::size_t k = log.size(); k-- > 0;) {
    const LedgerRecord& record = log[k];
    switch (record.kind) {
      case LedgerRecord::kInsert:
        ledger_.commit_erase(record.job);
        break;
      case LedgerRecord::kErase:
        ledger_.commit_insert(record.job, record.window, record.machine);
        break;
      case LedgerRecord::kMigration:
        ledger_.commit_migration(record.job, record.machine);
        break;
    }
  }
}

void ShardedScheduler::replay_subbatch(std::span<const Request> batch,
                                       std::size_t first, std::size_t end,
                                       std::vector<std::uint8_t>& status,
                                       std::vector<RequestStats>& stats,
                                       FlatHashSet<JobId>& rejected_ids) {
  for (std::size_t i = first; i < end; ++i) {
    if (status[i] == kRejected) continue;  // scan-level rejection stands
    stats[i] = RequestStats{};
    if (!serve_request(*this, batch[i], rejected_ids, stats[i])) status[i] = kRejected;
  }
}

}  // namespace reasched
