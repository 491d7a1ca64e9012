// Incremental audit engine: dirty-interval invariant checking.
//
// The seed's only correctness net was a stop-the-world O(state) sweep
// (ReservationScheduler::audit) — fine for unit tests, ruinous for
// audit-on serving (bench E13/E15). The paper's invariants, however, are
// *locally checkable*: Invariant 5 and Observation 7 make every interval's
// reservation/fulfillment state a pure function of inputs that change in
// O(1) known places per request, and the ledger invariants decompose per
// window / per job. So correctness checking can be incremental exactly the
// way the PR 1 fulfillment cache made recomputation incremental:
//
//   * The owning scheduler emits *mutation events* at its choke points
//     (slot assign/free, lower-occupancy flips, window job-count changes,
//     window activation, job placement churn, generation swap). Each event
//     is one branch + one hash insert when the engine is attached, and
//     exactly zero work when it is not (null pointer check).
//   * The engine maintains per-level dirty-interval sets (paged bitmaps,
//     dirty_set.hpp), per-level dirty-window queues, a dirty-job queue,
//     and a handful of *shadow counters* (parked jobs, per-window job
//     counts, per-class window census) that are redundantly derived from
//     the event stream — an independent witness the O(1) global checks
//     compare against.
//   * An audit call re-verifies only the dirty regions (optionally capped
//     by AuditPolicy::budget — the budgeted-slice mode that mirrors the
//     partitioned-rebuild pacing) plus the O(1) global counters.
//   * Wholesale state changes (emergency EDF rebuild, engine attach)
//     escalate: the next audit is one full sweep,
//     after which the owner reseeds the shadow counters from the freshly
//     verified ledgers (begin_reseed/seed_*). A partitioned-rebuild
//     generation swap instead *swaps the tracking state* with the shadow
//     generation's engine (swap_state_with) — the dirty sets follow the
//     data, no escalation needed.
//
// The engine is bookkeeping only: it never reads scheduler state. The
// owner drives verification through drain(), passing scoped check
// callbacks (ReservationScheduler::incremental_audit). This keeps the
// engine reusable across components — the balance ledger uses the same
// DirtyQueue primitive (core/balance_ledger.hpp).
//
// Thread-safety: none; one engine per scheduler instance, touched only by
// that instance's owning thread (shard-local by construction, like the
// interval arenas — DESIGN.md §6/§7).
#pragma once

#include <cstdint>
#include <vector>

#include "audit/audit_policy.hpp"
#include "audit/dirty_set.hpp"
#include "base/types.hpp"
#include "core/window_key.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace reasched::audit {

/// Observable audit work, for the benches' zero-overhead smoke and the E15
/// speedup accounting.
struct EngineStats {
  std::uint64_t events = 0;              ///< mutation events ingested
  std::uint64_t incremental_audits = 0;  ///< incremental audit calls served
  std::uint64_t escalations = 0;         ///< mark_all() calls (full-sweep next)
  std::uint64_t jobs_checked = 0;
  std::uint64_t windows_checked = 0;
  std::uint64_t intervals_checked = 0;

  [[nodiscard]] std::uint64_t regions_checked() const noexcept {
    return jobs_checked + windows_checked + intervals_checked;
  }
};

class AuditEngine {
 public:
  explicit AuditEngine(AuditPolicy policy) : policy_(policy) {}

  [[nodiscard]] const AuditPolicy& policy() const noexcept { return policy_; }
  void set_policy(const AuditPolicy& policy) noexcept { policy_ = policy; }

  /// Declares the owner's level geometry (index 0 unused, like the
  /// scheduler's own level table). Must be called before any event.
  void configure_level(unsigned level, unsigned interval_log, unsigned class_count) {
    if (levels_.size() <= level) levels_.resize(level + 1);
    levels_[level].interval_log = interval_log;
    levels_[level].census.assign(class_count, 0);
  }

  // ---- mutation events (one call per choke-point mutation) -----------------

  void on_interval(unsigned level, Time base) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    levels_[level].dirty_intervals.mark(base >> levels_[level].interval_log);
  }

  /// Ledger slot-set change on an active window (assign/unassign/free flip).
  void on_window(unsigned level, const WindowKey& w) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    levels_[level].dirty_windows.mark(w);
  }

  /// Window job-count change: updates the shadow count AND dirties the
  /// window. `delta` is ±1 (the request's own job entering/leaving W).
  void on_window_jobs(unsigned level, const WindowKey& w, std::int64_t delta) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    LevelTracking& tracking = levels_[level];
    tracking.dirty_windows.mark(w);
    const auto [count, inserted] = tracking.window_jobs.try_emplace(w);
    *count += delta;
    RS_CHECK(*count >= 0, "AuditEngine: shadow window job count underflow");
    if (*count == 0) tracking.window_jobs.erase(w);
  }

  void on_window_activated(unsigned level, unsigned cls) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    ++levels_[level].census[cls];
  }
  void on_window_deactivated(unsigned level, unsigned cls) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    RS_CHECK(levels_[level].census[cls] > 0,
             "AuditEngine: shadow census underflow");
    --levels_[level].census[cls];
  }

  void on_job(JobId id) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    dirty_jobs_.mark(id);
  }
  /// The job left the active set: nothing remains to verify on it (its
  /// side effects were dirtied through interval/window events).
  void on_job_erased(JobId id) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    dirty_jobs_.unmark(id);
  }

  void on_parked(std::int64_t delta) {
    if (needs_full_) return;  // tracking is moot until the sweep reseeds
    ++stats_.events;
    parked_ += delta;
    RS_CHECK(parked_ >= 0, "AuditEngine: shadow parked count underflow");
  }

  /// Wholesale state change: shadows and dirty sets are unsalvageable;
  /// escalate the next audit to a full sweep (the owner reseeds after it).
  void mark_all() {
    ++stats_.escalations;
    needs_full_ = true;
  }
  [[nodiscard]] bool needs_full() const noexcept { return needs_full_; }

  // ---- shadow state for the O(1) global checks -----------------------------

  [[nodiscard]] std::int64_t shadow_parked() const noexcept { return parked_; }
  [[nodiscard]] std::uint32_t shadow_census(unsigned level, unsigned cls) const {
    return levels_[level].census[cls];
  }
  [[nodiscard]] std::int64_t shadow_window_jobs(unsigned level,
                                                const WindowKey& w) const {
    const std::int64_t* count = levels_[level].window_jobs.find(w);
    return count == nullptr ? 0 : *count;
  }

  // ---- reseed after a verified full sweep ----------------------------------

  /// Clears every shadow and dirty set; the owner follows with seed_* calls
  /// describing the freshly verified state, then the engine is incremental
  /// again.
  void begin_reseed() {
    for (LevelTracking& tracking : levels_) {
      tracking.dirty_intervals.clear();
      tracking.dirty_windows.clear();
      tracking.window_jobs.clear();
      for (auto& count : tracking.census) count = 0;
    }
    dirty_jobs_.clear();
    parked_ = 0;
    needs_full_ = false;
    paced_ = false;
  }
  void seed_window(unsigned level, const WindowKey& w, std::int64_t jobs) {
    levels_[level].window_jobs[w] = jobs;
  }
  void seed_census(unsigned level, unsigned cls, std::uint32_t count) {
    levels_[level].census[cls] = count;
  }
  void seed_parked(std::int64_t parked) { parked_ = parked; }

  // ---- verification drive --------------------------------------------------

  [[nodiscard]] std::size_t dirty_regions() const noexcept {
    std::size_t total = dirty_jobs_.size();
    for (const LevelTracking& tracking : levels_) {
      total += tracking.dirty_windows.size() + tracking.dirty_intervals.size();
    }
    return total;
  }

  /// Drains up to `budget` dirty regions (0 = all); oldest dirt first
  /// within each set. The drain order over the categories (jobs, then per
  /// level windows and intervals) ROTATES across budgeted calls: under
  /// sustained load the job queue alone can refill faster than a small
  /// budget drains it, and a fixed priority would starve the interval /
  /// window checks indefinitely — rotation bounds every region's delay by
  /// (categories × refill) audits instead. job_fn(JobId),
  /// window_fn(level, WindowKey), interval_fn(level, base). Returns the
  /// number of regions verified.
  template <class FJ, class FW, class FI>
  std::size_t drain(std::size_t budget, FJ&& job_fn, FW&& window_fn,
                    FI&& interval_fn) {
    // Category ids: 0 = jobs; per level L >= 1: 2L-1 = windows(L),
    // 2L = intervals(L). Level 0 has no interval/window tracking.
    const std::size_t categories =
        1 + 2 * (levels_.empty() ? 0 : levels_.size() - 1);
    std::size_t done = 0;
    for (std::size_t step = 0; step < categories; ++step) {
      if (budget != 0 && done >= budget) break;
      const std::size_t category = (drain_rotation_ + step) % categories;
      const std::size_t room = budget == 0 ? 0 : budget - done;
      std::size_t drained = 0;
      if (category == 0) {
        drained = dirty_jobs_.drain(room, [&](JobId id) { job_fn(id); });
        stats_.jobs_checked += drained;
      } else {
        const unsigned level = static_cast<unsigned>((category + 1) / 2);
        LevelTracking& tracking = levels_[level];
        if (category % 2 == 1) {
          drained = tracking.dirty_windows.drain(
              room, [&](const WindowKey& w) { window_fn(level, w); });
          stats_.windows_checked += drained;
        } else {
          drained = tracking.dirty_intervals.drain(room, [&](Time key) {
            interval_fn(level, key << tracking.interval_log);
          });
          stats_.intervals_checked += drained;
        }
      }
      done += drained;
    }
    if (budget != 0 && categories > 0) {
      drain_rotation_ = (drain_rotation_ + 1) % categories;
    }
    // Pacing releases once the backlog fits a single audit's budget — the
    // carry-over (or the migration window's reinsertion burst) has been
    // worked off and steady-state draining resumes unbounded.
    if (paced_ && dirty_regions() <= budget) paced_ = false;
    return done;
  }

  /// Generation flip (partitioned rebuild): the dirty sets and shadows
  /// follow the data into the other generation's engine; policies and
  /// accumulated stats stay with their owners.
  void swap_state_with(AuditEngine& other) {
    std::swap(levels_, other.levels_);
    std::swap(dirty_jobs_, other.dirty_jobs_);
    std::swap(parked_, other.parked_);
    std::swap(needs_full_, other.needs_full_);
    std::swap(drain_rotation_, other.drain_rotation_);
    std::swap(paced_, other.paced_);
  }

  /// Marks the current backlog as swap carry-over: until it drains to
  /// zero, the owner caps each audit at AuditPolicy::post_swap_budget
  /// regions instead of draining everything in one call. Called by the
  /// owner right after swap_state_with at a generation flip. No-op when
  /// there is nothing to pace.
  void begin_paced_drain() { paced_ = dirty_regions() > 0; }
  /// True while swap carry-over dirt is still being paced out.
  [[nodiscard]] bool paced_drain() const noexcept { return paced_; }

  /// Folds another engine's accumulated work counters into this one and
  /// zeroes the source — called when a retiring migration shadow hands its
  /// history to the surviving parent, so audit_work() totals never move
  /// backwards across a generation flip.
  void absorb_stats(AuditEngine& other) {
    stats_.events += other.stats_.events;
    stats_.incremental_audits += other.stats_.incremental_audits;
    stats_.escalations += other.stats_.escalations;
    stats_.jobs_checked += other.stats_.jobs_checked;
    stats_.windows_checked += other.stats_.windows_checked;
    stats_.intervals_checked += other.stats_.intervals_checked;
    other.stats_ = EngineStats{};
  }

  [[nodiscard]] EngineStats& stats() noexcept { return stats_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  struct LevelTracking {
    unsigned interval_log = 0;
    PagedDirtySet dirty_intervals;               // key: base >> interval_log
    DirtyQueue<WindowKey> dirty_windows;
    FlatHashMap<WindowKey, std::int64_t> window_jobs;  // shadow job counts
    std::vector<std::uint32_t> census;                 // shadow active census
  };

  AuditPolicy policy_;
  std::vector<LevelTracking> levels_;
  DirtyQueue<JobId> dirty_jobs_;
  std::size_t drain_rotation_ = 0;  // budgeted-drain fairness cursor
  bool paced_ = false;              // swap carry-over dirt being paced out
  std::int64_t parked_ = 0;
  /// Attach-time state is unverified: the first audit is always a full
  /// sweep, whose success seeds the shadows (see mark_all / begin_reseed).
  bool needs_full_ = true;
  EngineStats stats_;
};

}  // namespace reasched::audit
