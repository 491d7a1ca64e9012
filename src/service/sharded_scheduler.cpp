#include "service/sharded_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace reasched {

namespace {

constexpr std::size_t kAutoStripeFloor = 16;

std::size_t auto_stripes(const ShardedScheduler::Options& options) {
  if (options.stripes != 0) return options.stripes;
  return std::max<std::size_t>(kAutoStripeFloor,
                               std::size_t{4} * std::max(options.shards, 1u));
}

unsigned clamp_shards(unsigned shards, unsigned machines) {
  return std::min(std::max(shards, 1u), std::max(machines, 1u));
}

}  // namespace

ShardedScheduler::ShardedScheduler(unsigned machines, const Factory& factory,
                                   Options options)
    : shards_(clamp_shards(options.shards, machines)),
      ledger_(machines, auto_stripes(options)),
      pool_(shards_ - 1) {
  RS_REQUIRE(machines >= 1, "ShardedScheduler: need at least one machine");
#if RS_TELEM_COMPILED
  telemetry::enable(options.telemetry);
#endif
  machines_.reserve(machines);
  for (unsigned i = 0; i < machines; ++i) {
    auto scheduler = factory();
    RS_REQUIRE(scheduler != nullptr, "ShardedScheduler: factory returned null");
    RS_REQUIRE(scheduler->machines() == 1,
               "ShardedScheduler: inner schedulers must be single-machine");
    machines_.push_back(std::move(scheduler));
  }
  shard_begin_.resize(shards_ + 1);
  for (unsigned k = 0; k <= shards_; ++k) {
    shard_begin_[k] = static_cast<unsigned>(
        static_cast<std::uint64_t>(k) * machines / shards_);
  }
  label_ = "sharded[s=" + std::to_string(shards_) + "," + std::to_string(machines) +
           "x " + machines_.front()->name() + "]";
  if (options.wal) {
    // Construction is recovery. The replay runs through the sequential
    // request path with logging still off, so it does not re-log;
    // delegation is deterministic, so the recovered service matches a twin
    // that served exactly the surviving log.
    durability::recover_log(*options.wal, *this, recovery_report_, wal_);
    csn_ = recovery_report_.last_csn;
    wal_logging_ = true;
  }
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

std::string ShardedScheduler::name() const { return label_; }

std::size_t ShardedScheduler::audit_balance_incremental() {
  // One task per stripe, each under its own stripe lock, so the per-stripe
  // dirty sets are checked concurrently with no shared mutable state
  // beyond the stripe mutexes.
  const std::size_t stripes = ledger_.stripes();
  std::vector<unsigned> home(stripes);
  for (std::size_t stripe = 0; stripe < stripes; ++stripe) {
    home[stripe] = static_cast<unsigned>(stripe % shards_);
  }
  std::vector<std::size_t> verified(stripes, 0);
  run_stealable(stripes, home, [&](std::size_t stripe) {
    verified[stripe] = ledger_.audit_stripe_incremental(stripe);
  });
  std::size_t total = 0;
  for (const std::size_t count : verified) total += count;
  return total;
}

// ---------------------------------------------------------- sequential path

RequestStats ShardedScheduler::insert(JobId id, Window window) {
  RS_REQUIRE(window.valid(), "ShardedScheduler::insert: empty window");
  RS_REQUIRE(!ledger_.find_job(id), "ShardedScheduler::insert: id already active");
  // Write-ahead; a rejection replays as a rejection.
  log_request(RequestKind::kInsert, id, window);

  StripedLedger::WindowStripe& stripe = ledger_.window_stripe_for(window);
  MachineId machine;
  {
    std::lock_guard lock(stripe.mutex);
    machine = stripe.ledger.plan_insert(window);
  }
  // Ledger commits only after the machine accepted (MultiMachineScheduler
  // semantics: a rejected insert leaves no trace).
  const RequestStats stats = machines_[machine]->insert(id, window);
  {
    std::lock_guard lock(stripe.mutex);
    stripe.ledger.commit_insert(id, window, machine);
  }
  ledger_.insert_job(id, JobInfo{window, machine});
  return stats;
}

RequestStats ShardedScheduler::erase(JobId id) {
  const auto info = ledger_.find_job(id);
  RS_REQUIRE(info.has_value(), "ShardedScheduler::erase: id not active");
  const Window window = info->window;
  const MachineId machine = info->machine;
  log_request(RequestKind::kDelete, id, window);  // write-ahead

  StripedLedger::WindowStripe& stripe = ledger_.window_stripe_for(window);
  BalanceLedger::Migration migration;
  {
    std::lock_guard lock(stripe.mutex);
    migration = stripe.ledger.plan_erase(window, machine);
  }
  RequestStats stats = machines_[machine]->erase(id);
  {
    std::lock_guard lock(stripe.mutex);
    stripe.ledger.commit_erase(id, window, machine);
  }
  ledger_.erase_job(id);

  if (migration.needed) {
    stats += machines_[migration.donor]->erase(migration.moved);
    try {
      stats += machines_[machine]->insert(migration.moved, window);
    } catch (...) {
      machines_[migration.donor]->insert(migration.moved, window);
      throw;
    }
    {
      std::lock_guard lock(stripe.mutex);
      stripe.ledger.commit_migration(window, migration, machine);
    }
    ledger_.set_job_machine(migration.moved, machine);
    ++stats.reallocations;
    ++stats.migrations;
  }
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

void ShardedScheduler::run_stealable(
    std::size_t count, const std::vector<unsigned>& home_shard,
    const std::function<void(std::size_t)>& task) {
  if (shards_ == 1) {
    for (std::size_t t = 0; t < count; ++t) task(t);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    // Shard 0's share is the caller's; park it on pool worker 0 (shard 1's
    // worker) — home placement is a cache preference, never a requirement.
    const unsigned home = home_shard[t];
    const std::size_t worker = home == 0 ? 0 : home - 1;
    futures.push_back(pool_.submit_stealable(worker, [&task, t] { task(t); }));
  }
  // The caller lends its cycles instead of idling on the joins.
  std::exception_ptr first;
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!pool_.try_run_stealable()) {
        future.wait_for(std::chrono::microseconds(50));
      }
    }
    try {
      future.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

BatchResult ShardedScheduler::apply(std::span<const Request> batch) {
  BatchResult result;
  result.stats.resize(batch.size());
  if (batch.empty()) return result;

  std::vector<Resolved> resolved(batch.size());
  std::vector<std::uint8_t> status(batch.size(), kServed);
  FlatHashSet<JobId> rejected_ids;

  const std::uint64_t start_csn = csn_;
  std::size_t first = 0;
  while (first < batch.size()) {
    std::size_t end;
    {
      RS_TELEM_DURATION(kScanHist, "svc.scan");
      RS_TELEM_SPAN(scan_span, kScanHist, "svc.scan");
      end = scan_subbatch(batch, first, resolved, status, rejected_ids);
    }
    // Write-ahead on the caller thread, in batch order, before the
    // sub-batch fans out: CSNs are assigned here, so the log holds exactly
    // this sequential order.
    for (std::size_t i = first; i < end; ++i) {
      if (status[i] == kRejected) continue;  // moot delete: no CSN, no record
      log_request(batch[i].kind, batch[i].job, resolved[i].window);
    }
    apply_subbatch(batch, first, end, resolved, status, result.stats, rejected_ids);
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
  return result;
}

std::size_t ShardedScheduler::scan_subbatch(std::span<const Request> batch,
                                            std::size_t first,
                                            std::vector<Resolved>& resolved,
                                            std::vector<std::uint8_t>& status,
                                            FlatHashSet<JobId>& rejected_ids) {
  // Batch-local view of every id touched since `first`: the window it is
  // currently associated with and whether it is (optimistically) active.
  struct IdView {
    Window window;
    bool active = false;
  };
  FlatHashMap<JobId, IdView> view;

  std::size_t i = first;
  for (; i < batch.size(); ++i) {
    const Request& request = batch[i];
    if (request.kind == RequestKind::kInsert) {
      RS_REQUIRE(request.window.valid(), "ShardedScheduler::apply: empty window");
      const IdView* entry = view.find(request.job);
      if (entry != nullptr) {
        // Id already touched in this sub-batch. If it still looks active,
        // this insert is either a genuine double insert or a legal retry
        // after an insert that the apply phase will reject — only applying
        // the sub-batch can tell, so cut here and let the next scan judge
        // against the real directory. A window change likewise cuts (the
        // id's requests must stay inside one stripe).
        if (entry->active || entry->window != request.window) break;
      } else {
        RS_REQUIRE(!ledger_.find_job(request.job),
                   "ShardedScheduler::apply: insert of an active id");
      }
      rejected_ids.erase(request.job);  // id may be reused after a rejection
      view.insert_or_assign(request.job, IdView{request.window, true});
      resolved[i] = Resolved{request.window,
                             static_cast<std::uint32_t>(ledger_.stripe_of(request.window))};
    } else {
      const IdView* entry = view.find(request.job);
      Window window;
      if (entry != nullptr) {
        RS_REQUIRE(entry->active, "ShardedScheduler::apply: erase of an inactive id");
        window = entry->window;
      } else if (const auto info = ledger_.find_job(request.job)) {
        window = info->window;
      } else if (rejected_ids.contains(request.job)) {
        // The job never entered the scheduler; its delete is moot.
        rejected_ids.erase(request.job);
        status[i] = kRejected;
        resolved[i] = Resolved{};
        continue;
      } else {
        RS_REQUIRE(false, "ShardedScheduler::apply: erase of an unknown id");
      }
      view.insert_or_assign(request.job, IdView{window, false});
      resolved[i] =
          Resolved{window, static_cast<std::uint32_t>(ledger_.stripe_of(window))};
    }
  }
  RS_CHECK(i > first, "ShardedScheduler::apply: empty sub-batch");
  return i;
}

void ShardedScheduler::apply_subbatch(std::span<const Request> batch,
                                      std::size_t first, std::size_t end,
                                      const std::vector<Resolved>& resolved,
                                      std::vector<std::uint8_t>& status,
                                      std::vector<RequestStats>& stats,
                                      FlatHashSet<JobId>& rejected_ids) {
  // Bucket request indices by plan unit, the *stripe*: any thread may run
  // it (the stripe lock guards the ledger, and stripe-sized granules are
  // what idle workers steal). Each bucket preserves batch order, so every
  // window's requests are planned in order by exactly one task.
  std::vector<std::vector<std::uint32_t>> buckets;
  std::vector<unsigned> bucket_home;
  std::vector<std::int32_t> slot(ledger_.stripes(), -1);
  for (std::size_t i = first; i < end; ++i) {
    if (status[i] == kRejected) continue;
    const std::uint32_t stripe = resolved[i].stripe;
    if (slot[stripe] < 0) {
      slot[stripe] = static_cast<std::int32_t>(buckets.size());
      buckets.emplace_back();
      bucket_home.push_back(stripe % shards_);
    }
    buckets[static_cast<std::size_t>(slot[stripe])].push_back(
        static_cast<std::uint32_t>(i));
  }

  // ---- plan: commit delegation decisions, emit machine op lists ----
  std::vector<PlanOutput> plans(buckets.size());
  std::vector<std::uint8_t> migrated(end - first, 0);
  const auto plan_bucket = [&](std::size_t bucket) {
    RS_TELEM_DURATION(kPlanHist, "svc.plan");
    RS_TELEM_SPAN(plan_span, kPlanHist, "svc.plan");
    PlanOutput& out = plans[bucket];
    for (const std::uint32_t index : buckets[bucket]) {
      const Request& request = batch[index];
      const Window window = resolved[index].window;
      StripedLedger::WindowStripe& stripe =
          ledger_.window_stripe(resolved[index].stripe);
      if (request.kind == RequestKind::kInsert) {
        MachineId machine;
        {
          std::lock_guard lock(stripe.mutex);
          machine = stripe.ledger.plan_insert(window);
          stripe.ledger.commit_insert(request.job, window, machine);
        }
        ledger_.insert_job(request.job, JobInfo{window, machine});
        out.ops.push_back(
            Op{RequestKind::kInsert, 0, machine, index, request.job, window, {}});
        out.log.push_back(
            LedgerRecord{LedgerRecord::kInsert, request.job, window, machine, 0});
      } else {
        const auto info = ledger_.find_job(request.job);
        RS_CHECK(info.has_value(), "ShardedScheduler::apply: planned erase lost its job");
        const MachineId machine = info->machine;
        BalanceLedger::Migration migration;
        {
          std::lock_guard lock(stripe.mutex);
          migration = stripe.ledger.plan_erase(window, machine);
          stripe.ledger.commit_erase(request.job, window, machine);
          if (migration.needed) stripe.ledger.commit_migration(window, migration, machine);
        }
        ledger_.erase_job(request.job);
        out.ops.push_back(
            Op{RequestKind::kDelete, 0, machine, index, request.job, window, {}});
        out.log.push_back(
            LedgerRecord{LedgerRecord::kErase, request.job, window, machine, 0});
        if (migration.needed) {
          ledger_.set_job_machine(migration.moved, machine);
          out.ops.push_back(Op{RequestKind::kDelete, 1, migration.donor, index,
                               migration.moved, window, {}});
          out.ops.push_back(Op{RequestKind::kInsert, 2, machine, index,
                               migration.moved, window, {}});
          out.log.push_back(LedgerRecord{LedgerRecord::kMigration, migration.moved,
                                         window, machine, migration.donor});
          migrated[index - first] = 1;
        }
      }
    }
  };
  run_stealable(buckets.size(), bucket_home, plan_bucket);

  // ---- distribute: per-machine op lists in sequential request order ----
  std::vector<std::vector<Op>> machine_ops(machines_.size());
  for (const PlanOutput& plan : plans) {
    for (const Op& op : plan.ops) machine_ops[op.machine].push_back(op);
  }
  for (auto& ops : machine_ops) {
    std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      return a.request != b.request ? a.request < b.request : a.role < b.role;
    });
  }

  // ---- apply: execute the per-machine op lists ----
  // Each machine's list runs on exactly one thread; the unit is the
  // machine (home = owning shard's worker), so a hotspot shard's machines
  // spread to idle siblings instead of serializing behind one worker.
  std::vector<std::size_t> applied(machines_.size(), 0);
  std::atomic<bool> failed{false};
  const auto apply_machine = [&](unsigned machine) {
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
  };
  std::vector<unsigned> work_machines;
  std::vector<unsigned> machine_home;
  for (unsigned machine = 0; machine < machines_.size(); ++machine) {
    if (machine_ops[machine].empty()) continue;
    work_machines.push_back(machine);
    const auto it = std::upper_bound(shard_begin_.begin(), shard_begin_.end(),
                                     machine);
    machine_home.push_back(static_cast<unsigned>(it - shard_begin_.begin()) - 1);
  }
  run_stealable(work_machines.size(), machine_home, [&](std::size_t t) {
    RS_TELEM_DURATION(kApplyHist, "svc.apply");
    RS_TELEM_SPAN(apply_span, kApplyHist, "svc.apply");
    apply_machine(work_machines[t]);
  });

  if (failed.load()) {
    // Rare path: a machine rejected an optimistically planned insert. Undo
    // the whole sub-batch and replay it through the exact sequential
    // per-request path, which reproduces sequential rejection semantics.
    // The sub-batch was already logged before the fan-out, so logging is
    // suspended for the re-run — the log keeps the original records, and
    // recovery's replay re-derives the same rejections deterministically.
    rollback_subbatch(plans, machine_ops, applied);
    const bool was_logging = wal_logging_;
    wal_logging_ = false;
    try {
      replay_subbatch(batch, first, end, resolved, status, stats, rejected_ids);
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
  for (std::size_t i = first; i < end; ++i) {
    if (migrated[i - first]) {
      // The §3 rebalance migration itself, exactly as the sequential
      // reduction accounts it.
      ++stats[i].reallocations;
      ++stats[i].migrations;
    }
  }
}

void ShardedScheduler::rollback_subbatch(
    const std::vector<PlanOutput>& plans,
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

  // Ledger state: unwind every commit in reverse per-bucket order. Each
  // window's commits live in exactly one plan bucket's log, so per-bucket
  // reversal unwinds every window's sequence exactly.
  for (const PlanOutput& plan : plans) {
    for (std::size_t k = plan.log.size(); k-- > 0;) {
      const LedgerRecord& record = plan.log[k];
      StripedLedger::WindowStripe& stripe = ledger_.window_stripe_for(record.window);
      std::lock_guard lock(stripe.mutex);
      switch (record.kind) {
        case LedgerRecord::kInsert:
          stripe.ledger.rollback_insert(record.job, record.window, record.machine);
          ledger_.erase_job(record.job);
          break;
        case LedgerRecord::kErase:
          stripe.ledger.rollback_erase(record.job, record.window, record.machine);
          ledger_.insert_job(record.job, JobInfo{record.window, record.machine});
          break;
        case LedgerRecord::kMigration: {
          BalanceLedger::Migration migration;
          migration.needed = true;
          migration.moved = record.job;
          migration.donor = record.donor;
          stripe.ledger.rollback_migration(record.window, migration, record.machine);
          ledger_.set_job_machine(record.job, record.donor);
          break;
        }
      }
    }
  }
}

void ShardedScheduler::replay_subbatch(std::span<const Request> batch,
                                       std::size_t first, std::size_t end,
                                       const std::vector<Resolved>& resolved,
                                       std::vector<std::uint8_t>& status,
                                       std::vector<RequestStats>& stats,
                                       FlatHashSet<JobId>& rejected_ids) {
  for (std::size_t i = first; i < end; ++i) {
    if (status[i] == kRejected) continue;  // scan-level rejection stands
    const Request& request = batch[i];
    stats[i] = RequestStats{};
    if (request.kind == RequestKind::kInsert) {
      try {
        stats[i] = insert(request.job, resolved[i].window);
      } catch (const InfeasibleError&) {
        status[i] = kRejected;
        rejected_ids.insert(request.job);
      }
    } else {
      if (rejected_ids.contains(request.job)) {
        rejected_ids.erase(request.job);
        status[i] = kRejected;
        continue;
      }
      stats[i] = erase(request.job);
    }
  }
}

}  // namespace reasched
