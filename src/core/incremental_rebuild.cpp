#include "core/incremental_rebuild.hpp"

#include "util/assert.hpp"

namespace reasched {

IncrementalRebuildScheduler::IncrementalRebuildScheduler(SchedulerOptions options)
    : options_(std::move(options)) {
  RS_REQUIRE(is_pow2(options_.gamma),
             "IncrementalRebuildScheduler: gamma must be a power of two");
  SchedulerOptions inner = options_;
  inner.trimming = false;  // the adapter owns n*/trimming
  inner.overflow = OverflowPolicy::kBestEffort;  // migrations must not throw
  // The inner generations keep the adapter's engine mode (their mutations
  // must be tracked) but never audit autonomously — the adapter's audit
  // drives them at its own cadence.
  inner.audit_policy.cadence = 0;
  generations_[0] = std::make_unique<ReservationScheduler>(inner);
  generations_[1] = std::make_unique<ReservationScheduler>(inner);
}

Window IncrementalRebuildScheduler::to_virtual(const Window& w) {
  // Outer [a, a+2^k), a multiple of 2^k, k >= 1  →  [a/2, a/2 + 2^{k-1}).
  // Works for either parity: the outer slots {2v, 2v+1} both lie in the
  // outer window exactly when v lies in the virtual one.
  const Time half_start = w.start / 2;
  return Window{half_start, half_start + w.span() / 2};
}

Time IncrementalRebuildScheduler::to_outer(Time virtual_slot,
                                           std::uint8_t generation) const {
  return 2 * virtual_slot + generation;
}

void IncrementalRebuildScheduler::begin_migration(std::uint64_t new_n_star,
                                                  RequestStats& stats) {
  // A still-running migration at re-trigger time is the degenerate safety
  // net only: the adaptive pace (migration_pace) drains the backlog before
  // the thresholds can fire again except at adversarial tiny n*. Finish it
  // in one burst — bounded by that same tiny size.
  if (pending_count_ > 0) migrate_some(pending_count_, stats);
  n_star_ = new_n_star;
  current_ = static_cast<std::uint8_t>(1 - current_);
  // Snapshot the work list in one pass; no per-id set bookkeeping. Every
  // active job is now in the stale generation by definition.
  work_list_.clear();
  work_list_.reserve(jobs_.size());
  for (const auto& [id, info] : jobs_) work_list_.push_back(id);
  work_cursor_ = 0;
  pending_count_ = jobs_.size();
  stats.rebuilt = true;
}

void IncrementalRebuildScheduler::migrate_some(std::size_t count, RequestStats& stats) {
  while (count > 0 && pending_count_ > 0) {
    RS_CHECK(work_cursor_ < work_list_.size(),
             "migrate: pending jobs but the work list is exhausted");
    const JobId id = work_list_[work_cursor_++];
    const auto it = jobs_.find(id);
    // Stale entry: erased since the snapshot, or already migrated (an
    // erase-then-reinsert of the same id lands in the current generation).
    if (it == jobs_.end() || it->second.generation == current_) continue;
    JobInfo& info = it->second;
    stats += generations_[info.generation]->erase(id);
    const Window trimmed = trimming::trim(id, info.window, options_.gamma, n_star_);
    stats += generations_[current_]->insert(id, to_virtual(trimmed));
    info.generation = current_;
    --pending_count_;
    ++stats.reallocations;  // the migrated job itself moved
    --count;
  }
}

std::size_t IncrementalRebuildScheduler::migration_pace() const noexcept {
  if (pending_count_ == 0) return 0;
  // Drain pending_count_ before the earliest possible next trigger; never
  // below the paper's two-per-request pace.
  const std::size_t runway = trimming::runway(n_star_, jobs_.size());
  const std::size_t needed = (pending_count_ + runway - 1) / runway;
  return needed > 2 ? needed : 2;
}

void IncrementalRebuildScheduler::maybe_trigger(RequestStats& stats) {
  if (trimming::should_double(n_star_, jobs_.size())) {
    begin_migration(n_star_ * 2, stats);
  } else if (trimming::should_halve(n_star_, jobs_.size())) {
    begin_migration(n_star_ / 2, stats);
  }
}

void IncrementalRebuildScheduler::check_window(Window window) const {
  RS_REQUIRE(window.valid() && window.aligned(),
             "IncrementalRebuildScheduler::insert: window must be aligned");
  RS_REQUIRE(window.span() >= 2,
             "IncrementalRebuildScheduler::insert: span-1 windows cannot "
             "survive the even/odd split");
}

RequestStats IncrementalRebuildScheduler::insert(JobId id, Window window) {
  check_window(window);
  RS_REQUIRE(!jobs_.contains(id),
             "IncrementalRebuildScheduler::insert: id already active");

  RequestStats stats;
  jobs_.emplace(id, JobInfo{window, current_});
  try {
    const Window trimmed = trimming::trim(id, window, options_.gamma, n_star_);
    stats += generations_[current_]->insert(id, to_virtual(trimmed));
  } catch (...) {
    jobs_.erase(id);
    throw;
  }
  maybe_trigger(stats);
  // The paper's two-jobs-per-request pace, raised adaptively when the
  // backlog would otherwise outlive the runway to the next trigger.
  migrate_some(migration_pace(), stats);
  maybe_audit();
  return stats;
}

RequestStats IncrementalRebuildScheduler::erase(JobId id) {
  const auto it = jobs_.find(id);
  RS_REQUIRE(it != jobs_.end(), "IncrementalRebuildScheduler::erase: id not active");
  RequestStats stats = generations_[it->second.generation]->erase(id);
  if (it->second.generation != current_) {
    RS_CHECK(pending_count_ > 0, "erase: stale-generation job without a backlog");
    --pending_count_;  // erasing a stale-generation job is migration progress
  }
  jobs_.erase(it);
  maybe_trigger(stats);
  migrate_some(migration_pace(), stats);
  maybe_audit();
  return stats;
}

Schedule IncrementalRebuildScheduler::snapshot() const {
  Schedule out(1);
  for (std::uint8_t generation = 0; generation < 2; ++generation) {
    const Schedule inner = generations_[generation]->snapshot();
    for (const auto& [id, placement] : inner.assignments()) {
      out.assign(id, Placement{0, to_outer(placement.slot, generation)});
    }
  }
  return out;
}

void IncrementalRebuildScheduler::check_adapter_counters() const {
  RS_CHECK(generations_[0]->active_jobs() + generations_[1]->active_jobs() ==
               jobs_.size(),
           "incremental audit: job count mismatch");
  RS_CHECK(pending_count_ <= jobs_.size(),
           "incremental audit: pending count exceeds the active set");
  RS_CHECK(work_cursor_ <= work_list_.size(),
           "incremental audit: work cursor overran the list");
}

void IncrementalRebuildScheduler::check_adapter_coherence() const {
  check_adapter_counters();
  std::size_t stale = 0;
  for (const auto& [id, info] : jobs_) {
    if (info.generation != current_) ++stale;
  }
  RS_CHECK(stale == pending_count_, "incremental audit: pending count diverged");
  const Schedule merged = snapshot();
  RS_CHECK(merged.size() == jobs_.size(), "incremental audit: snapshot size");
  for (const auto& [id, placement] : merged.assignments()) {
    const auto it = jobs_.find(id);
    RS_CHECK(it != jobs_.end(), "incremental audit: ghost placement");
    RS_CHECK(it->second.window.contains(placement.slot),
             "incremental audit: placement outside original window");
    RS_CHECK((placement.slot & 1) == it->second.generation,
             "incremental audit: parity mismatch");
  }
}

void IncrementalRebuildScheduler::audit() const {
  check_adapter_coherence();
  generations_[0]->audit();
  generations_[1]->audit();
}

void IncrementalRebuildScheduler::incremental_audit() {
  check_adapter_counters();
  generations_[0]->incremental_audit();
  generations_[1]->incremental_audit();
}

void IncrementalRebuildScheduler::register_invariants(
    audit::InvariantTable& table) const {
  const std::string component = "IncrementalRebuildScheduler";
  table.add("irs.adapter-coherence", component,
            "generation job counts, migration backlog/cursor agreement, "
            "merged-snapshot parity (even/odd interleaving)",
            [this] { check_adapter_coherence(); });
  table.add("irs.generations", component,
            "both inner generations pass their own full audits",
            [this] {
              generations_[0]->audit();
              generations_[1]->audit();
            });
}

void IncrementalRebuildScheduler::maybe_audit() {
  ++audit_request_index_;
  const audit::AuditPolicy& policy = options_.audit_policy;
  if (!policy.due(audit_request_index_)) return;
  if (policy.mode == audit::Mode::kFull) {
    audit();
    return;
  }
  incremental_audit();
}

}  // namespace reasched
