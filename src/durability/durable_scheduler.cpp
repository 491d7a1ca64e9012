#include "durability/durable_scheduler.hpp"

#include "core/reservation_scheduler.hpp"
#include "durability/crashpoint.hpp"
#include "durability/snapshot.hpp"
#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace reasched::durability {

DurableScheduler::DurableScheduler(DurabilityPolicy policy, SchedulerOptions options)
    : policy_(std::move(policy)) {
  // Newest loadable snapshot wins; corrupt ones are skipped. A failed load
  // leaves the target half-written, so each attempt starts from scratch.
  for (const std::uint64_t csn : list_snapshots(policy_.dir)) {
    auto candidate = std::make_unique<ReservationScheduler>(options);
    if (load_snapshot(snapshot_path(policy_.dir, csn), *candidate)) {
      inner_ = std::move(candidate);
      report_.snapshot_csn = csn;
      report_.last_csn = csn;
      break;
    }
    ++report_.snapshots_skipped;
  }
  if (!inner_) inner_ = std::make_unique<ReservationScheduler>(options);
  recover_log(policy_, *inner_, report_, wal_);
  csn_ = report_.last_csn;
}

DurableScheduler::~DurableScheduler() = default;  // WalWriter flushes on close

Schedule DurableScheduler::snapshot() const { return inner_->snapshot(); }

std::size_t DurableScheduler::active_jobs() const { return inner_->active_jobs(); }

std::string DurableScheduler::name() const { return "durable(" + inner_->name() + ")"; }

RequestStats DurableScheduler::insert(JobId id, Window window) {
  RS_REQUIRE(window.valid(), "DurableScheduler::insert: empty window");
  // No precondition lookup in front of the log: the record is only
  // buffered until commit_record(), so a ContractViolation from the inner
  // scheduler's own fresh-id check rolls it back — nothing
  // precondition-violating ever reaches disk, with zero extra hash probes
  // on the hot path.
  ++csn_;
  RS_TELEM_SET_CSN(csn_);
  const std::size_t mark = wal_.mark();
  wal_.append_insert(csn_, id, window);
  RequestStats stats;
  try {
    stats = inner_->insert(id, window);
  } catch (const InfeasibleError&) {
    // Rejected inserts stay logged and consume their CSN: replay re-runs
    // them and deterministically re-rejects, so recovered state is
    // unaffected.
    wal_.commit_record();
    throw;
  } catch (...) {
    wal_.rollback_to(mark);
    --csn_;
    throw;
  }
  wal_.commit_record();
  maybe_snapshot(stats);
  return stats;
}

RequestStats DurableScheduler::erase(JobId id) {
  ++csn_;
  RS_TELEM_SET_CSN(csn_);
  const std::size_t mark = wal_.mark();
  wal_.append_erase(csn_, id);
  RequestStats stats;
  try {
    stats = inner_->erase(id);
  } catch (...) {
    // Erase of a non-live job: the inner scheduler's precondition check
    // throws before mutating anything, and the buffered record is rolled
    // back — it never reaches the log.
    wal_.rollback_to(mark);
    --csn_;
    throw;
  }
  wal_.commit_record();
  maybe_snapshot(stats);
  return stats;
}

BatchResult DurableScheduler::apply(std::span<const Request> batch) {
  // The sequential batch loop serves through insert()/erase() above, so
  // every served request and every rejected insert is logged with its CSN;
  // a moot delete of a rejected insert never reaches the log.
  const std::uint64_t start_csn = csn_;
  BatchResult result = IReallocScheduler::apply(batch);
  if (csn_ > start_csn) {
    result.first_csn = start_csn + 1;
    result.last_csn = csn_;
  }
  wal_.flush();  // batch boundary = frame boundary (prompt durability)
  return result;
}

void DurableScheduler::maybe_snapshot(const RequestStats& stats) {
  if (policy_.snapshot_every > 0 && csn_ % policy_.snapshot_every == 0) {
    snapshot_pending_ = true;  // deferred while a migration is in flight
  }
  const bool quiescent = !inner_->rebuild_in_flight();
  const bool flip = policy_.snapshot_on_flip && stats.rebuilt && quiescent;
  if (!flip && !(snapshot_pending_ && quiescent)) return;
  write_snapshot_now();
  snapshot_pending_ = false;
}

void DurableScheduler::write_snapshot_now() {
  RS_TELEM_DURATION(kSnapshotHist, "wal.snapshot");
  RS_TELEM_SPAN(snapshot_span, kSnapshotHist, "wal.snapshot");
  // The log must be durable through csn_ before a snapshot claims that
  // CSN — otherwise a crash right after the snapshot could recover state
  // the (shorter) log can no longer extend consistently.
  wal_.sync();
  if (CrashPoint::due("flip")) {
    // Fault injection: die at the generation flip, after the request and
    // its log record but before the flip snapshot — recovery must come up
    // from the previous snapshot plus the full surviving suffix.
    CrashPoint::die();
  }
  write_snapshot(policy_.dir, csn_, *inner_, policy_);
  ++snapshots_written_;
}

}  // namespace reasched::durability
