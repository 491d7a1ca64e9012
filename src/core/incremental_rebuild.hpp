// De-amortized trimming rebuilds (paper §4, "Trimming Windows to n and
// Deamortization").
//
// The amortized scheduler rebuilds from scratch whenever the n* estimate
// doubles or halves — O(1) amortized but Θ(n) on the rebuild request. The
// paper's fix: interleave two schedules on the even and odd timeslots. The
// old generation lives on one parity, the new generation on the other, and
// every request moves two jobs from old to new, so a rebuild completes
// within n/2 requests while each individual request stays O(log*).
//
// Window transform: an aligned outer window [a, a+2^k) maps on parity p to
// the aligned virtual window [a/2, a/2 + 2^{k-1}) (slot v ↔ outer 2v+p).
// Squeezing into half the slots costs a factor 2 of underallocation — the
// paper requires the instance to be 2γ-underallocated for the deamortized
// variant, which is why this is a separate adapter rather than the default.
//
// The adapter owns the n*/trimming logic; its inner ReservationSchedulers
// run with trimming disabled and in best-effort overflow mode (a mid-flight
// migration must not throw).
//
// Work-list discipline: a trigger snapshots the active ids into a plain
// vector (one memcpy-ish pass — no per-id hash-set inserts) and migration
// walks it with a cursor; `JobInfo::generation` is the source of truth, so
// stale entries (jobs erased or already migrated) are skipped for free.
// The per-request pace self-adjusts: nominally the paper's two jobs per
// request, scaled up just enough that the backlog provably drains before
// the next doubling/halving trigger can fire — the old "finish the whole
// pending set in one burst on re-trigger" path is thereby reduced to a
// truly degenerate safety net (adversarial tiny-n* cases only).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/invariant_check.hpp"
#include "core/reservation_scheduler.hpp"
#include "core/scheduler_options.hpp"
#include "core/trimming.hpp"
#include "schedule/scheduler_interface.hpp"

namespace reasched {

class IncrementalRebuildScheduler final : public IReallocScheduler {
 public:
  explicit IncrementalRebuildScheduler(SchedulerOptions options = {});

  /// Window must be aligned with span >= 2 (a span-1 window cannot survive
  /// the parity split; γ-underallocated instances never contain one).
  RequestStats insert(JobId id, Window window) override;
  RequestStats erase(JobId id) override;
  void check_window(Window window) const override;

  [[nodiscard]] Schedule snapshot() const override;
  [[nodiscard]] std::size_t active_jobs() const override { return jobs_.size(); }
  [[nodiscard]] unsigned machines() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return "reservation-incremental-rebuild";
  }

  [[nodiscard]] std::uint64_t n_star() const noexcept { return n_star_; }
  /// True while a generation migration is in flight.
  [[nodiscard]] bool migrating() const noexcept { return pending_count_ > 0; }
  /// Jobs still awaiting migration to the current generation.
  [[nodiscard]] std::size_t pending_migrations() const noexcept {
    return pending_count_;
  }

  /// Internal consistency audit (tests): the adapter coherence checks plus
  /// a full audit of both inner generations. Equivalent to running every
  /// check registered by register_invariants.
  void audit() const;

  /// Registers the adapter's named invariant checks
  /// ("irs.adapter-coherence", "irs.generations") bound to this instance.
  void register_invariants(audit::InvariantTable& table) const;

  /// Incremental audit: the adapter's O(1) counter checks plus the inner
  /// generations' dirty-region audits (each inner ReservationScheduler
  /// carries its own engine when SchedulerOptions::audit_policy enables
  /// one). The O(n) merged-snapshot parity check stays full-sweep-only.
  void incremental_audit();

 private:
  struct JobInfo {
    Window window;            // original aligned window
    std::uint8_t generation;  // 0 or 1: which inner scheduler holds it
  };

  [[nodiscard]] static Window to_virtual(const Window& w);
  [[nodiscard]] Time to_outer(Time virtual_slot, std::uint8_t generation) const;

  void begin_migration(std::uint64_t new_n_star, RequestStats& stats);
  /// Moves up to `count` pending jobs into the current generation.
  void migrate_some(std::size_t count, RequestStats& stats);
  void maybe_trigger(RequestStats& stats);
  /// Paper pace (2/request), scaled up only when the backlog would not
  /// drain before the earliest possible next trigger.
  [[nodiscard]] std::size_t migration_pace() const noexcept;
  /// Runs whichever audits the runtime gates request after a request.
  void maybe_audit();
  /// Adapter-level coherence: generation job counts, pending/backlog
  /// agreement, work-cursor bounds, merged-snapshot parity (O(n)).
  void check_adapter_coherence() const;
  /// Adapter-level O(1) subset of the above (no full recount/merge).
  void check_adapter_counters() const;

  SchedulerOptions options_;
  std::unique_ptr<ReservationScheduler> generations_[2];
  std::uint8_t current_ = 0;  // generation receiving new jobs; parity = current_
  std::unordered_map<JobId, JobInfo> jobs_;
  /// Migration work list: ids snapshotted at the trigger, walked by cursor.
  /// Entries may be stale (erased / already current); JobInfo::generation
  /// decides. pending_count_ tracks the exact number of live stale-gen jobs.
  std::vector<JobId> work_list_;
  std::size_t work_cursor_ = 0;
  std::size_t pending_count_ = 0;
  std::uint64_t n_star_ = trimming::kMinNStar;
  std::uint64_t audit_request_index_ = 0;  // audit cadence counter
};

}  // namespace reasched
