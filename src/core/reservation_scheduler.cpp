#include "core/reservation_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <unordered_map>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

#include "feasibility/edf.hpp"

namespace reasched {

namespace {

/// Internal: the request job failed its reservation placement under the
/// strict overflow policy — distinguish from generic dead ends so the
/// recovery path rejects outright instead of adopting an EDF fallback.
class RequestRejectedError : public InfeasibleError {
 public:
  using InfeasibleError::InfeasibleError;
};

}  // namespace

ReservationScheduler::ReservationScheduler(SchedulerOptions options)
    : options_(std::move(options)) {
  static_assert(std::is_trivially_copyable_v<SlotInfo> &&
                    std::is_trivially_destructible_v<SlotInfo>,
                "SlotInfo must be an implicit-lifetime type (arena-backed)");
  static_assert(std::is_trivially_copyable_v<FulRow> &&
                    std::is_trivially_destructible_v<FulRow>,
                "FulRow must be an implicit-lifetime type (arena-backed)");
  static_assert(alignof(SlotInfo) <= BlockArena::kAlign &&
                    alignof(FulRow) <= BlockArena::kAlign,
                "arena blocks must satisfy the row alignments");
  static_assert(sizeof(SlotInfo) == 1 && sizeof(FulRow) == 8,
                "interval blocks are sized for one-byte slot cells and 8-byte rows");
  RS_REQUIRE(is_pow2(options_.gamma),
             "SchedulerOptions::gamma must be a power of two (keeps trimmed "
             "windows aligned)");
  RS_REQUIRE(options_.rebuild_batch > 0,
             "SchedulerOptions::rebuild_batch must be positive");
  telemetry::enable(options_.telemetry);
  const unsigned count = options_.levels.level_count();
  levels_.resize(count);
  for (unsigned level = 0; level < count; ++level) {
    auto& ls = levels_[level];
    ls.max_span = options_.levels.max_span(level);
    ls.max_span_log = floor_log2(ls.max_span);
    if (level >= 1) {
      ls.interval_size = options_.levels.interval_size(level);
      ls.interval_log = options_.levels.interval_size_log(level);
      ls.min_span_log = ls.interval_log + 1;
      RS_CHECK(ls.class_count() <= 64,
               "level table has more span classes than the class bitmask and "
               "SlotInfo::cls hold");
      ls.active_per_class.assign(ls.class_count(), 0);
      // One block carries all three per-interval arrays (Interval doc
      // comment). The rows follow the one-byte slot cells, so the interval
      // size must keep them aligned (interval sizes are powers of two >= 32);
      // sizeof(FulRow) is a multiple of 4, so the trailing u32 counters are
      // aligned too.
      RS_CHECK(ls.interval_size * sizeof(SlotInfo) % alignof(FulRow) == 0,
               "interval size leaves the fulfillment rows misaligned");
      ls.arena.configure(ls.interval_size * sizeof(SlotInfo) +
                         ls.class_count() * sizeof(FulRow) +
                         ls.class_count() * sizeof(std::uint32_t));
    }
  }
  sync_audit_engine();
}

ReservationScheduler::~ReservationScheduler() = default;

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

Time ReservationScheduler::interval_base_of(unsigned level, Time slot) const {
  return align_down(slot, levels_[level].interval_size);
}

Time ReservationScheduler::nth_interval_base(const WindowKey& w, unsigned level,
                                             u64 index) const {
  return w.start + static_cast<Time>(index * levels_[level].interval_size);
}

unsigned ReservationScheduler::block_floor(const JobState& job) const noexcept {
  // A reserved level-ℓ job makes its slot unavailable to levels > ℓ (it sits
  // on its own level's fulfilled reservation). A parked job additionally
  // blocks its own level: it occupies a slot outside the reservation system,
  // so that slot must not be handed out as anyone's fulfilled reservation.
  return job.parked ? job.level : job.level + 1;
}

// ---------------------------------------------------------------------------
// Interval state
// ---------------------------------------------------------------------------

void ReservationScheduler::carve_interval_block(LevelState& ls, Interval& interval) {
  // One zeroed carve materializes all three per-interval arrays; the
  // zero state is exactly "no assignments, no lower occupancy, cache
  // invalid" (ful_state lives in the Interval view itself).
  std::byte* block = ls.arena.carve();
  interval.slots = reinterpret_cast<SlotInfo*>(block);
  interval.ful_cache =
      reinterpret_cast<FulRow*>(block + ls.interval_size * sizeof(SlotInfo));
  interval.assigned_by_class = reinterpret_cast<std::uint32_t*>(
      block + ls.interval_size * sizeof(SlotInfo) +
      ls.class_count() * sizeof(FulRow));
}

ReservationScheduler::Interval& ReservationScheduler::get_or_create_interval(
    unsigned level, Time base) {
  auto& ls = levels_[level];
  RS_CHECK(ls.interval_size > 0, "intervals exist only for levels >= 1");
  const auto [interval, inserted] = ls.intervals.try_emplace(base);
  if (inserted) {
    interval->base = base;
    mark_interval_dirty(level, base);
    carve_interval_block(ls, *interval);
    // Initialize occupancy flags from the live schedule; the occupancy
    // bitmap skips free stretches page-at-a-time and probes only populated
    // pages, so materialization costs O(populated pages + occupants).
    const Time end = base + static_cast<Time>(ls.interval_size);
    occ_.for_each_in(base, end, [&](Time slot, JobId id) {
      if (block_floor(jobs_.at(id)) <= level) {
        interval->slots[static_cast<std::size_t>(slot - base)].lower_occupied = true;
        ++interval->lower_count;
      }
    });
  }
  return *interval;
}

ReservationScheduler::Interval* ReservationScheduler::find_interval(unsigned level,
                                                                    Time base) {
  return levels_[level].intervals.find(base);
}

bool ReservationScheduler::assigned_to(unsigned level, const WindowKey& w,
                                       Time slot) const {
  // A class names w only in w's own intervals.
  if (!w.window().contains(slot)) return false;
  const auto& ls = levels_[level];
  const Interval* interval = ls.intervals.find(interval_base_of(level, slot));
  if (interval == nullptr) return false;
  const SlotInfo& info = interval->slots[static_cast<std::size_t>(slot - interval->base)];
  return info.assigned && info.cls == ls.class_of(w);
}

void ReservationScheduler::compute_fulfillment_into(unsigned level,
                                                    const Interval& interval,
                                                    std::vector<FulRow>& rows) const {
  const auto& ls = levels_[level];
  rows.clear();
  rows.reserve(ls.class_count());
  RS_CHECK(interval.lower_count <= ls.interval_size, "lower_count overflow");
  u64 remaining = ls.interval_size - interval.lower_count;
  // Shortest-window-first greedy over the canonical reservation counts
  // (Invariant 5). Exactly one aligned window of each span contains this
  // interval; windows with zero jobs ("virtual") still hold one baseline
  // reservation per interval and consume priority.
  for (unsigned cls = 0; cls < ls.class_count(); ++cls) {
    const WindowKey key = ls.window_of_class(interval.base, cls);
    const ActiveWindow* window = ls.windows.find(key);
    const u64 x = window ? window->jobs : 0;
    const unsigned k_log = key.span_log - ls.interval_log;
    const u64 num_intervals = pow2(k_log);
    const u64 idx = static_cast<u64>(interval.base - key.start) >> ls.interval_log;
    const u64 quotient = (2 * x) >> k_log;
    const u64 remainder = (2 * x) & (num_intervals - 1);
    const u64 reservations = quotient + 1 + (idx < remainder ? 1 : 0);
    const u64 fulfilled = std::min(reservations, remaining);
    remaining -= fulfilled;
    rows.push_back(FulRow{static_cast<std::uint32_t>(reservations),
                          static_cast<std::uint32_t>(fulfilled)});
  }
}

std::vector<ReservationScheduler::FulRow> ReservationScheduler::compute_fulfillment(
    unsigned level, const Interval& interval) const {
  std::vector<FulRow> rows;
  compute_fulfillment_into(level, interval, rows);
  return rows;
}

const ReservationScheduler::FulRow* ReservationScheduler::fulfillment(
    unsigned level, const Interval& interval) const {
  const auto& ls = levels_[level];
  if (interval.ful_state == FulState::kValid && interval.ful_bound >= ls.active_bound) {
    return interval.ful_cache;
  }

  if (interval.ful_state == FulState::kInvalid) {
    // Rebuild the reservation column off the ledgers straight into the
    // arena rows — and look a window up only for the (few) classes that
    // hold any active window at all; every other row is a virtual baseline
    // of exactly one reservation.
    for (unsigned cls = 0; cls < ls.class_count(); ++cls) {
      const WindowKey key = ls.window_of_class(interval.base, cls);
      u64 x = 0;
      if (ls.active_per_class[cls] > 0) {
        if (const ActiveWindow* window = ls.windows.find(key)) x = window->jobs;
      }
      const unsigned k_log = key.span_log - ls.interval_log;
      const u64 num_intervals = pow2(k_log);
      const u64 idx = static_cast<u64>(interval.base - key.start) >> ls.interval_log;
      const u64 quotient = (2 * x) >> k_log;
      const u64 remainder = (2 * x) & (num_intervals - 1);
      const u64 reservations = quotient + 1 + (idx < remainder ? 1 : 0);
      interval.ful_cache[cls] = FulRow{static_cast<std::uint32_t>(reservations), 0};
    }
  }

  // Re-derive fulfilled with the greedy cascade over the (exact) cached
  // reservations — pure arithmetic, no hashing, no allocation — stopping at
  // the active bound past which no hot-path reader looks.
  RS_CHECK(interval.lower_count <= ls.interval_size, "lower_count overflow");
  u64 remaining = ls.interval_size - interval.lower_count;
  for (unsigned cls = 0; cls < ls.active_bound; ++cls) {
    FulRow& row = interval.ful_cache[cls];
    const u64 fulfilled = std::min<u64>(row.reservations, remaining);
    remaining -= fulfilled;
    row.fulfilled = static_cast<std::uint32_t>(fulfilled);
  }
  interval.ful_bound = ls.active_bound;
  interval.ful_state = FulState::kValid;
  // This refresh rewrote cache rows on the read path — a mutation like any
  // other as far as the audit engine is concerned. Without this event an
  // interval that is probed (acquire_slot candidates) but never otherwise
  // mutated would be an I4 blind spot for the incremental auditor.
  mark_interval_dirty(level, interval.base);
  return interval.ful_cache;
}

void ReservationScheduler::note_window_activated(unsigned level, unsigned cls) {
  auto& ls = levels_[level];
  ++ls.active_per_class[cls];
  if (cls + 1 > ls.active_bound) ls.active_bound = cls + 1;
  if (audit_engine_) audit_engine_->on_window_activated(level, cls);
}

void ReservationScheduler::note_window_deactivated(unsigned level, unsigned cls) {
  auto& ls = levels_[level];
  RS_CHECK(ls.active_per_class[cls] > 0, "window census underflow");
  --ls.active_per_class[cls];
  while (ls.active_bound > 0 && ls.active_per_class[ls.active_bound - 1] == 0) {
    --ls.active_bound;
  }
  if (audit_engine_) audit_engine_->on_window_deactivated(level, cls);
}

void ReservationScheduler::adjust_cached_reservation(unsigned level, const WindowKey& w,
                                                     Time base, std::int32_t delta) {
  Interval* interval = find_interval(level, base);
  if (interval == nullptr || interval->ful_state == FulState::kInvalid) return;
  FulRow& row = interval->ful_cache[levels_[level].class_of(w)];
  row.reservations = static_cast<std::uint32_t>(
      static_cast<std::int64_t>(row.reservations) + delta);
  interval->ful_state = FulState::kFulfilledStale;
}

// ---------------------------------------------------------------------------
// Reservation machinery
// ---------------------------------------------------------------------------

void ReservationScheduler::assign_slot(unsigned level, Interval& interval, Time slot,
                                       const WindowKey& w) {
  mark_interval_dirty(level, interval.base);
  mark_window_dirty(level, w);
  SlotInfo& info = interval.slots[static_cast<std::size_t>(slot - interval.base)];
  RS_CHECK(!info.assigned && !info.lower_occupied, "assign_slot: slot unavailable");
  const unsigned cls = levels_[level].class_of(w);
  info.assigned = true;
  info.cls = static_cast<std::uint8_t>(cls);
  ++interval.assigned_by_class[cls];
  interval.assigned_class_mask |= u64{1} << cls;
  // A freshly claimed slot never carries a job of this level (such slots are
  // either lower-flagged or already assigned), so it is free by definition.
  levels_[level].windows.at(w).free_assigned.insert(slot);
}

void ReservationScheduler::unassign_slot(unsigned level, Interval& interval, Time slot) {
  SlotInfo& info = interval.slots[static_cast<std::size_t>(slot - interval.base)];
  RS_CHECK(info.assigned, "unassign_slot: slot not assigned");
  const unsigned cls = info.cls;
  const WindowKey owner = levels_[level].window_of_class(interval.base, cls);
  mark_interval_dirty(level, interval.base);
  mark_window_dirty(level, owner);
  levels_[level].windows.at(owner).free_assigned.erase(slot);
  if (--interval.assigned_by_class[cls] == 0) {
    interval.assigned_class_mask &= ~(u64{1} << cls);
  }
  info.assigned = false;
  info.cls = 0;
}

void ReservationScheduler::reconcile(unsigned level, Time interval_base,
                                     std::vector<JobId>& pending) {
  reconcile_interval(level, get_or_create_interval(level, interval_base), pending);
}

void ReservationScheduler::reconcile_interval(unsigned level, Interval& interval,
                                              std::vector<JobId>& pending) {
  std::vector<JobId> to_move;
  // Cached table (refreshed only if an input changed) + incrementally
  // tracked assignment counts: detecting over-assignment visits only the
  // classes that hold assignments at all — no per-slot scan. Lazy
  // under-assignment (a < f) is fine. Note the a <= f comparison must run
  // even on a cache hit: acquire_slot may have refreshed the cache after
  // the mutation that scheduled this reconcile, observing (but not
  // releasing) an over-assignment.
  const FulRow* rows = fulfillment(level, interval);
  for (u64 mask = interval.assigned_class_mask; mask != 0; mask &= mask - 1) {
    const unsigned cls = static_cast<unsigned>(std::countr_zero(mask));
    const std::uint32_t a = interval.assigned_by_class[cls];
    if (a <= rows[cls].fulfilled) continue;
    release_over_assignment(level, interval, cls, a - rows[cls].fulfilled, to_move);
  }
  for (const JobId job : to_move) move_job(job, pending);
}

void ReservationScheduler::release_over_assignment(unsigned level, Interval& interval,
                                                   unsigned cls,
                                                   std::uint32_t to_release,
                                                   std::vector<JobId>& to_move) {
  // Prefer releasing slots that carry no job of this level (silent); only
  // move jobs when every over-assigned slot is occupied by one.
  std::vector<Time> silent;
  std::vector<Time> occupied;
  for (std::size_t off = 0; off < levels_[level].interval_size; ++off) {
    const SlotInfo& info = interval.slots[off];
    if (!info.assigned || info.cls != cls) continue;
    const Time slot = interval.base + static_cast<Time>(off);
    const JobId* occupant = occ_.find(slot);
    if (occupant == nullptr || jobs_.at(*occupant).level != level) {
      silent.push_back(slot);
    } else {
      occupied.push_back(slot);
    }
  }
  for (const Time slot : silent) {
    if (to_release == 0) break;
    unassign_slot(level, interval, slot);
    --to_release;
  }
  for (const Time slot : occupied) {
    if (to_release == 0) break;
    const JobId job = occ_.at(slot);
    unassign_slot(level, interval, slot);
    to_move.push_back(job);
    --to_release;
  }
  RS_CHECK(to_release == 0, "reconcile: could not release enough slots");
}

Time ReservationScheduler::acquire_slot(const WindowKey& w, unsigned level, Time avoid) {
  auto& ls = levels_[level];
  auto& window = ls.windows.at(w);

  // Fast path: an already-materialized free fulfilled slot. Prefer a truly
  // empty one among the first few probes (fewer displacements); any free
  // fulfilled slot is valid per Figure 1 line 15. The early-exit scan is
  // cheap AND layout-independent: free_assigned is a DenseHashSet, so
  // iteration order is a pure function of the set's own insert/erase
  // sequence — hash layout never leaks into the pick
  // (tests/golden_digest_test.cpp pins the schedules).
  Time empty_hit = kNoSlot;
  Time fallback = kNoSlot;
  int probes = 0;
  window.free_assigned.for_each_until([&](Time slot) {
    if (slot == avoid) return false;
    if (!occ_.occupied(slot)) {
      empty_hit = slot;
      return true;
    }
    if (fallback == kNoSlot) fallback = slot;
    return ++probes >= 4;
  });
  if (empty_hit != kNoSlot) return empty_hit;
  if (fallback != kNoSlot) return fallback;

  // Slow path: claim a spare fulfilled reservation from some interval of W.
  // Lemma 8 guarantees that (under 8-underallocation) strictly more than
  // half of W's intervals fulfil all of W's reservations, so a round-robin
  // scan terminates quickly in the intended regime.
  const unsigned k_log = w.span_log - ls.interval_log;
  const u64 num_intervals = pow2(k_log);
  const unsigned cls = ls.class_of(w);
  for (u64 step = 0; step < num_intervals; ++step) {
    const u64 idx = (window.claim_cursor + step) % num_intervals;
    const Time base = nth_interval_base(w, level, idx);
    Interval& interval = get_or_create_interval(level, base);

    // Cached table + incrementally tracked assignment count: the spare
    // check costs O(1); slots are scanned only when a claim will succeed.
    const FulRow* rows = fulfillment(level, interval);
    if (rows[cls].fulfilled > interval.assigned_by_class[cls]) {
      Time free_any = kNoSlot;
      Time free_empty = kNoSlot;
      for (std::size_t off = 0; off < ls.interval_size; ++off) {
        const SlotInfo& info = interval.slots[off];
        const Time slot = interval.base + static_cast<Time>(off);
        if (info.assigned || info.lower_occupied || slot == avoid) continue;
        if (free_any == kNoSlot) free_any = slot;
        if (!occ_.occupied(slot)) {
          free_empty = slot;
          break;  // first free slot already recorded; nothing better exists
        }
      }
      const Time slot = free_empty != kNoSlot ? free_empty : free_any;
      if (slot == kNoSlot) continue;  // only free slot was `avoid`; try elsewhere
      assign_slot(level, interval, slot, w);
      window.claim_cursor = (idx + 1) % num_intervals;
      return slot;
    }
  }
  return kNoSlot;
}

// ---------------------------------------------------------------------------
// Job motion
// ---------------------------------------------------------------------------

void ReservationScheduler::count_move(const JobState& job) noexcept {
  ++current_.reallocations;
  touched_levels_mask_ |= (1u << job.level);
}

void ReservationScheduler::occupy(JobId id, Time slot, bool parked_placement,
                                  std::vector<JobId>& pending, bool counts) {
  JobState& job = jobs_.at(id);
  RS_CHECK(job.slot == kNoSlot, "occupy: job already placed");
  RS_CHECK(job.window.contains(slot), "occupy: slot outside window");

  // Displace the current occupant, if any. Pecking order guarantees it has
  // a strictly longer span.
  JobId displaced{};
  bool has_displaced = false;
  unsigned old_floor = top_level() + 1;  // level from which the slot was already blocked
  if (const JobId* occupant = occ_.find(slot); occupant != nullptr) {
    displaced = *occupant;
    has_displaced = true;
    JobState& victim = jobs_.at(displaced);
    RS_CHECK(victim.window.span() > job.window.span(),
             "occupy: pecking order violated (displacing a non-longer job)");
    old_floor = block_floor(victim);
    if (victim.parked) {
      victim.parked = false;
      --parked_count_;
      note_parked_delta(-1);
    }
    victim.slot = kNoSlot;
    mark_job_dirty(displaced);
  }

  mark_job_dirty(id);
  job.parked = parked_placement;
  if (parked_placement) {
    ++parked_count_;
    note_parked_delta(+1);
  }
  if (has_displaced) {
    occ_.displace(slot, id);  // slot stays occupied; run index untouched
  } else {
    occ_.place(slot, id);
  }
  job.slot = slot;

  // Own-level ledger: a reserved placement lands on a slot assigned to its
  // own window; that slot stops being "free".
  if (!parked_placement && job.level >= 1) {
    const WindowKey w(job.window);
    RS_CHECK(assigned_to(job.level, w, slot),
             "occupy: reserved placement on a slot not assigned to the window");
    levels_[job.level].windows.at(w).free_assigned.erase(slot);
    mark_window_dirty(job.level, w);
    mark_interval_dirty(job.level, interval_base_of(job.level, slot));
  }

  // The slot becomes blocked ("occupied by a lower-level job") for levels in
  // [new_floor, old_floor); it was already blocked above old_floor. Each
  // affected interval loses the slot from its allowance (Figure 1 lines
  // 17-21): void any assignment on it, then reconcile, which may waitlist
  // the marginal window's reservation and MOVE a job.
  const unsigned new_floor = block_floor(job);
  for (unsigned level = std::max(new_floor, 1u);
       level < old_floor && level <= top_level(); ++level) {
    Interval* interval = find_interval(level, interval_base_of(level, slot));
    if (interval == nullptr) continue;  // never materialized: flags set lazily
    SlotInfo& info = interval->slots[static_cast<std::size_t>(slot - interval->base)];
    RS_CHECK(!info.lower_occupied, "occupy: stale lower_occupied flag");
    if (info.assigned) unassign_slot(level, *interval, slot);
    info.lower_occupied = true;
    ++interval->lower_count;
    mark_interval_dirty(level, interval->base);
    soften_fulfillment(*interval);  // lower occupancy is a fulfillment input
    reconcile_interval(level, *interval, pending);
  }

  if (counts) count_move(job);
  if (has_displaced) pending.push_back(displaced);
}

void ReservationScheduler::vacate(JobId id) {
  JobState& job = jobs_.at(id);
  RS_CHECK(job.slot != kNoSlot, "vacate: job not placed");
  const Time slot = job.slot;
  occ_.remove(slot);
  job.slot = kNoSlot;
  mark_job_dirty(id);

  const unsigned floor = block_floor(job);
  for (unsigned level = std::max(floor, 1u); level <= top_level(); ++level) {
    Interval* interval = find_interval(level, interval_base_of(level, slot));
    if (interval == nullptr) continue;
    SlotInfo& info = interval->slots[static_cast<std::size_t>(slot - interval->base)];
    RS_CHECK(info.lower_occupied, "vacate: missing lower_occupied flag");
    info.lower_occupied = false;
    --interval->lower_count;
    mark_interval_dirty(level, interval->base);
    soften_fulfillment(*interval);  // allowance grew; fulfilled re-cascades
    // Waitlisted reservations may be promoted, which needs no job movement
    // and is realized lazily on the next claim.
  }

  if (job.parked) {
    job.parked = false;
    --parked_count_;
    note_parked_delta(-1);
  } else if (job.level >= 1) {
    // The slot keeps its reservation; it is once again a free fulfilled
    // slot of the window (if still assigned — a release may have detached
    // it just before a MOVE).
    const WindowKey w(job.window);
    if (ActiveWindow* window = levels_[job.level].windows.find(w);
        window != nullptr && assigned_to(job.level, w, slot)) {
      window->free_assigned.insert(slot);
      mark_window_dirty(job.level, w);
      mark_interval_dirty(job.level, interval_base_of(job.level, slot));
    }
  }
}

void ReservationScheduler::swap_ancestor_bookkeeping(Time s1, Time s2,
                                                     unsigned above_level) {
  for (unsigned level = above_level + 1; level <= top_level(); ++level) {
    Interval* interval = find_interval(level, interval_base_of(level, s1));
    if (interval == nullptr) continue;
    RS_CHECK(interval_base_of(level, s2) == interval->base,
             "swap: slots not in the same ancestor interval");
    SlotInfo& a = interval->slots[static_cast<std::size_t>(s1 - interval->base)];
    SlotInfo& b = interval->slots[static_cast<std::size_t>(s2 - interval->base)];
    // Both slots lie in this interval, so equal classes mean one owner.
    const auto owner = [&](const SlotInfo& info) {
      return levels_[level].window_of_class(interval->base, info.cls);
    };
    mark_interval_dirty(level, interval->base);
    if (a.assigned) mark_window_dirty(level, owner(a));
    if (b.assigned) mark_window_dirty(level, owner(b));
    if (a.assigned && b.assigned && a.cls == b.cls) {
      // Same owner on both slots: only the free/occupied status may differ,
      // and it follows the physical swap.
      auto& window = levels_[level].windows.at(owner(a));
      const bool free1 = window.free_assigned.contains(s1);
      const bool free2 = window.free_assigned.contains(s2);
      if (free1 != free2) {
        if (free1) {
          window.free_assigned.erase(s1);
          window.free_assigned.insert(s2);
        } else {
          window.free_assigned.erase(s2);
          window.free_assigned.insert(s1);
        }
      }
    } else {
      // The cell swap below moves ownership; a free slot's place in its
      // owner's free set moves with it.
      const auto transfer = [&](const SlotInfo& info, Time from, Time to) {
        if (!info.assigned) return;
        auto& free = levels_[level].windows.at(owner(info)).free_assigned;
        if (free.erase(from) > 0) free.insert(to);
      };
      transfer(a, s1, s2);
      transfer(b, s2, s1);
    }
    // Both slots live in this interval, so lower_count and the per-class
    // assignment counts are preserved by the swap — the fulfillment cache
    // stays valid.
    std::swap(a, b);
  }
}

void ReservationScheduler::move_job(JobId id, std::vector<JobId>& pending) {
  JobState& job = jobs_.at(id);
  RS_CHECK(!job.parked && job.level >= 1, "move_job: only reserved jobs use MOVE");
  const Time from = job.slot;
  RS_CHECK(from != kNoSlot, "move_job: job not placed");
  const WindowKey w(job.window);

  const Time to = acquire_slot(w, job.level, /*avoid=*/from);
  if (to == kNoSlot) {
    // Lemma 8's guarantee failed: the instance is not sufficiently
    // underallocated. Degrade gracefully — the job leaves the reservation
    // system and is re-placed best-effort. (Throwing here would leave the
    // schedule with an unplaced pre-existing job, so even under kThrow we
    // park and record the degradation.)
    ++current_.degraded;
    vacate(id);
    place_unreserved(id, /*park=*/true, pending, /*counts=*/true);
    return;
  }

  // Figure-1 MOVE via the swap trick: `from` and `to` lie inside W, hence in
  // the same ancestor interval at every level above; swapping the two slots'
  // bookkeeping wholesale keeps every higher-level allowance unchanged. A
  // higher-level job h on `to` is rehoused onto the vacated `from` (its
  // reservation follows the swap) with no further cascading.
  JobId higher{};
  bool has_higher = false;
  if (const JobId* occupant = occ_.find(to); occupant != nullptr) {
    higher = *occupant;
    has_higher = true;
  }

  swap_ancestor_bookkeeping(from, to, job.level);
  if (has_higher) {
    // Occupancy swaps wholesale: both slots stay occupied.
    JobState& hjob = jobs_.at(higher);
    RS_CHECK(hjob.level > job.level, "move_job: target slot held a non-higher job");
    occ_.displace(from, higher);
    hjob.slot = from;
    count_move(hjob);
    mark_job_dirty(higher);
    occ_.displace(to, id);
  } else {
    occ_.remove(from);
    occ_.place(to, id);
  }
  mark_job_dirty(id);

  RS_CHECK(assigned_to(job.level, w, to), "move_job: target lost its reservation");
  levels_[job.level].windows.at(w).free_assigned.erase(to);
  mark_window_dirty(job.level, w);
  mark_interval_dirty(job.level, interval_base_of(job.level, to));
  job.slot = to;
  count_move(job);
}

void ReservationScheduler::place_reserved(JobId id, std::vector<JobId>& pending,
                                          bool is_request_job, bool counts) {
  JobState& job = jobs_.at(id);
  const WindowKey w(job.window);
  const Time slot = acquire_slot(w, job.level, kNoSlot);
  if (slot == kNoSlot) {
    if (is_request_job && options_.overflow == OverflowPolicy::kThrow) {
      // Strict mode: a reservation failure on the request job rejects it.
      throw RequestRejectedError(
          "reservation scheduler: no fulfilled slot available for the inserted "
          "job; the instance is not sufficiently underallocated");
    }
    ++current_.degraded;
    place_unreserved(id, /*park=*/true, pending, counts);
    return;
  }
  occupy(id, slot, /*parked_placement=*/false, pending, counts);
}

void ReservationScheduler::place_unreserved(JobId id, bool park,
                                            std::vector<JobId>& pending, bool counts) {
  JobState& job = jobs_.at(id);
  const Window w = job.window;

  // First-fit gap collection via the run index, then (only if the window is
  // fully occupied) a victim walk — pecking order displaces strictly longer
  // jobs only.
  std::vector<Time> gaps;
  const std::size_t max_gaps =
      options_.placement == PlacementPolicy::kAvoidReserved ? 16 : 1;
  for (Time t = occ_.next_free(w.start); t < w.end && gaps.size() < max_gaps;
       t = occ_.next_free(t + 1)) {
    gaps.push_back(t);
  }
  JobId victim{};
  Time victim_slot = 0;
  Time victim_span = w.span();
  bool has_victim = false;
  if (gaps.empty()) {
    occ_.for_each_in(w.start, w.end, [&](Time slot, JobId occupant) {
      const JobState& other = jobs_.at(occupant);
      if (other.window.span() > victim_span) {
        victim_span = other.window.span();
        victim = occupant;
        victim_slot = slot;
        has_victim = true;
      }
    });
  }

  if (!gaps.empty()) {
    Time chosen = gaps.front();
    if (options_.placement == PlacementPolicy::kAvoidReserved) {
      // Prefer a gap that no materialized higher-level interval has handed
      // out as a fulfilled reservation (ablation; reduces waitlist churn).
      for (const Time gap : gaps) {
        bool reserved = false;
        for (unsigned level = 1; level <= top_level(); ++level) {
          const auto& ls = levels_[level];
          const Interval* interval =
              ls.intervals.find(align_down(gap, ls.interval_size));
          if (interval == nullptr) continue;
          if (interval->slots[static_cast<std::size_t>(gap - interval->base)].assigned) {
            reserved = true;
            break;
          }
        }
        if (!reserved) {
          chosen = gap;
          break;
        }
      }
    }
    occupy(id, chosen, park, pending, counts);
    return;
  }
  if (!has_victim) {
    throw InfeasibleError(
        "pecking-order placement: window saturated with equal-or-shorter jobs; "
        "instance infeasible");
  }
  occupy(id, victim_slot, park, pending, counts);
}

void ReservationScheduler::drain(std::vector<JobId>& pending) {
  while (!pending.empty()) {
    const JobId id = pending.back();
    pending.pop_back();
    JobState& job = jobs_.at(id);
    RS_CHECK(job.slot == kNoSlot, "drain: pending job already placed");
    if (job.level == 0) {
      place_unreserved(id, /*park=*/false, pending, /*counts=*/true);
    } else {
      place_reserved(id, pending, /*is_request_job=*/false, /*counts=*/true);
    }
  }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

void ReservationScheduler::insert_impl(JobId id, Window original) {
  const Window trimmed =
      options_.trimming ? trimming::trim(id, original, options_.gamma, n_star_) : original;
  const unsigned level = options_.levels.level_of(static_cast<u64>(trimmed.span()));
  jobs_[id] = JobState{original, trimmed, level, kNoSlot, false};

  std::vector<JobId> pending;
  try {
    if (level == 0) {
      place_unreserved(id, /*park=*/false, pending, /*counts=*/false);
    } else {
      auto& ls = levels_[level];
      const WindowKey w(trimmed);
      const auto [window_slot, activated] = ls.windows.try_emplace(w);
      ActiveWindow& window = *window_slot;
      if (activated) note_window_activated(level, ls.class_of(w));
      const u64 x_old = window.jobs;
      window.jobs = x_old + 1;
      if (audit_engine_) audit_engine_->on_window_jobs(level, w, +1);

      // Invariant 5: the two new reservations go to the round-robin
      // positions following the 2x_old + 2^k existing ones — and the
      // closed-form r(W,·) changes in exactly those two intervals, so they
      // are the only fulfillment caches the count change can stale.
      const unsigned k_log = w.span_log - ls.interval_log;
      const u64 num_intervals = pow2(k_log);
      const u64 p1 = (2 * x_old) % num_intervals;
      const u64 p2 = (2 * x_old + 1) % num_intervals;
      const Time b1 = nth_interval_base(w, level, p1);
      const Time b2 = nth_interval_base(w, level, p2);
      mark_interval_dirty(level, b1);
      mark_interval_dirty(level, b2);
      adjust_cached_reservation(level, w, b1, +1);
      adjust_cached_reservation(level, w, b2, +1);
      reconcile(level, b1, pending);
      reconcile(level, b2, pending);

      place_reserved(id, pending, /*is_request_job=*/true, /*counts=*/false);
    }
    drain(pending);
  } catch (const RequestRejectedError&) {
    // Strict mode: reservation failure on the request job.
    recover_or_reject(id, /*reject_outright=*/true, pending);
  } catch (const InfeasibleError&) {
    // A pecking-order displacement chain dead-ended (insufficient slack).
    const bool strict = options_.overflow == OverflowPolicy::kThrow;
    recover_or_reject(id, /*reject_outright=*/strict, pending);
  }
}

void ReservationScheduler::erase_impl(JobId id) {
  try {
    erase_body(id);
  } catch (const InfeasibleError&) {
    // A MOVE triggered by the reservation removal dead-ended. The remaining
    // set was feasibly scheduled a moment ago, so the EDF fallback always
    // succeeds here.
    RS_CHECK(emergency_reschedule(nullptr),
             "erase recovery: EDF infeasible on a previously feasible set");
  }
}

void ReservationScheduler::erase_body(JobId id) {
  JobState* jit = jobs_.find(id);
  RS_CHECK(jit != nullptr, "erase_impl: unknown job");
  const JobState state = *jit;  // copy before mutation
  std::vector<JobId> pending;

  if (state.slot != kNoSlot) vacate(id);
  jobs_.erase(id);
  if (audit_engine_) audit_engine_->on_job_erased(id);

  if (state.level >= 1) {
    auto& ls = levels_[state.level];
    const WindowKey w(state.window);
    ActiveWindow* window = ls.windows.find(w);
    RS_CHECK(window != nullptr, "erase_impl: window ledger missing");
    const u64 x_old = window->jobs;
    RS_CHECK(x_old >= 1, "erase_impl: window job count underflow");
    window->jobs = x_old - 1;
    if (audit_engine_) audit_engine_->on_window_jobs(state.level, w, -1);
    // The two removed reservations sat at the round-robin positions below;
    // r(W,·) — and therefore fulfillment — changes in exactly those two
    // intervals, in the deactivation case as well (x: 1 -> 0 reduces the
    // window to its virtual baseline at positions {0, 1} = {p1, p2}).
    const unsigned k_log = w.span_log - ls.interval_log;
    const u64 num_intervals = pow2(k_log);
    const u64 p1 = (2 * x_old - 1) % num_intervals;
    const u64 p2 = (2 * x_old - 2) % num_intervals;
    const Time b1 = nth_interval_base(w, state.level, p1);
    const Time b2 = nth_interval_base(w, state.level, p2);
    mark_interval_dirty(state.level, b1);
    mark_interval_dirty(state.level, b2);
    adjust_cached_reservation(state.level, w, b1, -1);
    adjust_cached_reservation(state.level, w, b2, -1);

    if (window->jobs == 0) {
      // Deactivate: all concrete slots return to the free pool; promotions
      // of longer windows' waitlisted reservations need no job movement.
      // With no job left, every assigned slot of the window is free: the
      // only same-level job that can sit on one is the window's own reserved
      // job, since a parked job lower-flags its own level.
      std::vector<Time> slots;
      slots.reserve(window->free_assigned.size());
      window->free_assigned.for_each([&](Time slot) { slots.push_back(slot); });
      for (const Time slot : slots) {
        Interval* interval = find_interval(state.level, interval_base_of(state.level, slot));
        RS_CHECK(interval != nullptr, "erase_impl: assigned slot in missing interval");
        unassign_slot(state.level, *interval, slot);
      }
      ls.windows.erase(w);
      note_window_deactivated(state.level, ls.class_of(w));
    } else {
      // Remove the two most recently added reservations (the "two rightmost
      // intervals with the most reservations").
      reconcile(state.level, b1, pending);
      reconcile(state.level, b2, pending);
    }
  }
  drain(pending);
}

bool ReservationScheduler::emergency_reschedule(const JobId* exclude) {
  std::vector<JobSpec> specs;
  specs.reserve(jobs_.size());
  jobs_.for_each([&](const JobId& jid, const JobState& job) {
    if (exclude != nullptr && jid == *exclude) return;
    specs.push_back(JobSpec{jid, job.window});
  });
  const auto schedule = edf_schedule(specs, 1);
  if (!schedule.has_value()) return false;

  // Adopt the EDF schedule: every job becomes a parked placement. The
  // window ledgers' job counts survive (they describe the active set, which
  // is unchanged); concrete reservation assignments reset and will be
  // re-claimed lazily by future requests.
  FlatHashMap<JobId, Time> old_slots;
  old_slots.reserve(jobs_.size());
  jobs_.for_each([&](const JobId& jid, const JobState& job) { old_slots[jid] = job.slot; });

  // Wholesale reset: dirty tracking cannot survive it — escalate the next
  // audit to a full sweep (which reseeds the engine's shadows).
  if (audit_engine_) audit_engine_->mark_all();
  occ_.clear();
  parked_count_ = 0;
  for (auto& ls : levels_) {
    ls.intervals.clear();
    ls.arena.reset();  // O(1); interval blocks are reclaimed wholesale
    ls.windows.for_each([](const WindowKey&, ActiveWindow& window) {
      window.free_assigned.clear();
      window.claim_cursor = 0;
    });
  }
  jobs_.for_each([](const JobId&, JobState& job) {
    job.slot = kNoSlot;
    job.parked = false;
  });
  u64 moved = 0;
  for (const auto& [jid, placement] : *schedule) {
    JobState& job = jobs_.at(jid);
    job.slot = placement.slot;
    job.parked = job.level >= 1;
    if (job.parked) ++parked_count_;
    occ_.place(placement.slot, jid);
    if (old_slots.at(jid) != placement.slot) ++moved;
  }
  current_.reallocations += moved;
  current_.degraded += schedule->size();
  current_.rebuilt = true;
  return true;
}

void ReservationScheduler::recover_or_reject(JobId id, bool reject_outright,
                                             std::vector<JobId>& pending) {
  // Try to settle any interrupted cascade cheaply; a nested dead end while
  // draining falls through to the EDF recovery below.
  try {
    drain(pending);
  } catch (const InfeasibleError&) {
    pending.clear();
  }
  std::size_t stranded = 0;
  jobs_.for_each([&](const JobId& jid, const JobState& job) {
    if (jid != id && job.slot == kNoSlot) ++stranded;
  });

  if (stranded == 0) {
    if (!reject_outright) {
      // Best effort: the pecking order could not place the request, but EDF
      // (which is complete for unit jobs) might — keep the request if so.
      if (emergency_reschedule(nullptr)) return;
    }
    // Clean rejection: every pre-existing job is placed; just drop the
    // request's ledger entries. Minimal disturbance.
    erase_impl(id);
  } else {
    // Cascaded jobs were stranded mid-flight: rebuild a feasible schedule
    // for the whole set, keeping the request if possible and allowed.
    if (!reject_outright && emergency_reschedule(nullptr)) return;
    RS_CHECK(emergency_reschedule(&id),
             "insert recovery: EDF infeasible on the pre-request active set");
    erase_impl(id);  // removes the unplaced request's ledger entries
  }
  throw InfeasibleError(
      "reservation scheduler: request cannot be scheduled (instance "
      "infeasible, or reservations exhausted under OverflowPolicy::kThrow)");
}

// ---------------------------------------------------------------------------
// n*-rebuild: one shadow-generation migration (DESIGN.md §6)
// ---------------------------------------------------------------------------

void ReservationScheduler::maybe_rebuild_on_insert() {
  if (!options_.trimming) return;
  if (trimming::should_double(n_star_, jobs_.size() + 1)) rebuild(n_star_ * 2);
}

void ReservationScheduler::maybe_rebuild_on_erase() {
  if (!options_.trimming) return;
  if (trimming::should_halve(n_star_, jobs_.size())) rebuild(n_star_ / 2);
}

void ReservationScheduler::rebuild(u64 new_n_star) {
  // A re-trigger while a migration is still in flight is possible only when
  // the doubling/halving runway is shorter than the migration (tiny active
  // sets, custom towers): finish the old generation first, synchronously —
  // the burst is bounded by that same tiny size.
  if (migration_ != nullptr) flush_migration();
  begin_partitioned_rebuild(new_n_star);
  // One request's migration budget covers the whole set: finish it inside
  // the boundary request (rebuild_batch = SIZE_MAX does this for every
  // rebuild).
  if (jobs_.size() <= options_.rebuild_batch) flush_migration();
}

std::vector<std::pair<JobId, Window>> ReservationScheduler::sorted_active_set() const {
  std::vector<std::pair<JobId, Window>> all;
  all.reserve(jobs_.size());
  jobs_.for_each([&](const JobId& id, const JobState& job) {
    all.emplace_back(id, job.original);
  });
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first.value < b.first.value; });
  return all;
}

void ReservationScheduler::begin_partitioned_rebuild(u64 new_n_star) {
  // The boundary request snapshots the reinsertion work list (sorted by
  // JobId) and flips n*; the reinsertion itself happens in per-request
  // batches (step_migration), or all at once when rebuild() flushes a set
  // that fits one request's budget. n_star_ becomes the target immediately,
  // so trimming of interim inserts and the next trigger evaluation already
  // see the new estimate.
  n_star_ = new_n_star;
  RS_TELEM_COUNTER(kBegins, "rebuild.begins");
  RS_TELEM_ADD(kBegins, 1);
  RS_TELEM_INSTANT("rebuild.begin");
  auto migration = std::make_unique<Migration>();
  migration->reinsert = sorted_active_set();

  SchedulerOptions shadow_options = options_;
  // The shadow keeps the parent's engine mode (its mutations must be
  // tracked so the dirty sets can follow the data across the swap) but
  // never audits autonomously — the parent's audit drives it (cadence 0).
  shadow_options.audit_policy.cadence = 0;
  // A nested trigger during replay is flushed inside the replayed request,
  // exactly as a synchronous rebuild would have served it.
  shadow_options.rebuild_batch = std::numeric_limits<std::size_t>::max();
  // Reinsertion and replay must not throw (the original caller is long
  // gone); best-effort parks instead, even under a kThrow parent. That can
  // change an outcome only outside the underallocated regime — see
  // DESIGN.md §6.
  shadow_options.overflow = OverflowPolicy::kBestEffort;
  migration->shadow = std::make_unique<ReservationScheduler>(std::move(shadow_options));
  migration->shadow->n_star_ = new_n_star;
  migration_ = std::move(migration);
  current_.rebuilt = true;
}

void ReservationScheduler::step_migration(std::size_t budget) {
  Migration& m = *migration_;
  ReservationScheduler& shadow = *m.shadow;
  RS_TELEM_DURATION(kStepHist, "rebuild.step");
  RS_TELEM_SPAN(step_span, kStepHist, "rebuild.step");
  const std::size_t work_before = m.reinsert_next + m.replay_next;

  // Phase 1: reinsert the boundary snapshot in JobId order.
  while (budget > 0 && m.reinsert_next < m.reinsert.size()) {
    const auto& [id, original] = m.reinsert[m.reinsert_next++];
    shadow.insert_impl(id, original);
    --budget;
  }

  // Phase 2: replay the interim requests in arrival order through the
  // shadow's full request path (trigger checks included), exactly as a
  // scheduler rebuilt at the boundary would have served them.
  while (budget > 0 && m.replay_next < m.replay.size()) {
    const QueuedRequest q = m.replay[m.replay_next++];
    try {
      if (q.is_insert) {
        shadow.insert(q.id, q.window);
      } else {
        shadow.erase(q.id);
      }
    } catch (const InfeasibleError&) {
      // The live generation accepted this request over the same active set,
      // so a feasible schedule exists and best-effort recovery (EDF is
      // complete for unit jobs) cannot fail. Reaching this line means the
      // generations' job sets would diverge — a bug, not an input property.
      RS_CHECK(false, "partitioned rebuild: shadow rejected a replayed request "
                      "the live generation had accepted");
    }
    --budget;
  }

  RS_TELEM_HISTOGRAM(kStepWork, "rebuild.step_work");
  RS_TELEM_RECORD(kStepWork, m.reinsert_next + m.replay_next - work_before);

  if (m.reinsert_next == m.reinsert.size() && m.replay_next == m.replay.size()) {
    complete_migration();
  }
}

void ReservationScheduler::complete_migration() {
  ReservationScheduler& shadow = *migration_->shadow;
  RS_CHECK(shadow.jobs_.size() == jobs_.size(),
           "partitioned rebuild: generation job sets diverged");
  RS_CHECK(shadow.n_star_ == n_star_, "partitioned rebuild: n* diverged");

  // Honest reallocation accounting: one reallocation per job whose
  // placement differs across the flip.
  u64 moved = 0;
  shadow.jobs_.for_each([&](const JobId& id, const JobState& shadow_job) {
    const JobState* live_job = jobs_.find(id);
    RS_CHECK(live_job != nullptr, "partitioned rebuild: job missing from live generation");
    if (live_job->slot != shadow_job.slot) ++moved;
  });

  // The O(1) generation flip. The audit engines' tracking state (dirty
  // sets, shadow counters) swaps along with the data it describes; each
  // engine keeps its own policy and work counters.
  std::swap(levels_, shadow.levels_);
  std::swap(jobs_, shadow.jobs_);
  std::swap(occ_, shadow.occ_);
  std::swap(parked_count_, shadow.parked_count_);
  if (audit_engine_ != nullptr) {
    if (shadow.audit_engine_ != nullptr) {
      audit_engine_->swap_state_with(*shadow.audit_engine_);
      // The retiring shadow's work history folds into the survivor so
      // audit_work() totals never move backwards across the flip.
      audit_engine_->absorb_stats(*shadow.audit_engine_);
      // The swapped-in backlog is a whole migration window's dirt; pace it
      // out at AuditPolicy::post_swap_budget regions per audit instead of
      // verifying it all inside one post-swap call (the E15/E16 latency
      // fix — the audit mirrors how the rebuild spread its reinsertions).
      audit_engine_->begin_paced_drain();
    } else {
      // Engine attached mid-migration: the shadow generation was never
      // tracked, so the swapped-in state is unverified - escalate.
      audit_engine_->mark_all();
    }
  }

  current_.reallocations += moved;
  current_.rebuilt = true;

  // The shadow object now holds the OLD generation; park it for deferred
  // trimming (one level per request, trim_retired_step). Append, never
  // overwrite: an earlier retired generation that has not finished
  // draining keeps its place in the queue instead of being freed wholesale
  // inside this request.
  retiring_.push_back(std::move(migration_->shadow));
  migration_.reset();
  RS_TELEM_COUNTER(kFlips, "rebuild.flips");
  RS_TELEM_ADD(kFlips, 1);
  RS_TELEM_INSTANT("rebuild.flip");
}

void ReservationScheduler::flush_migration() {
  while (migration_ != nullptr) {
    step_migration(std::numeric_limits<std::size_t>::max());
  }
}

void ReservationScheduler::trim_retired_step() {
  if (retiring_.empty()) return;
  ReservationScheduler& oldest = *retiring_.front();
  if (!oldest.levels_.empty()) {
    // Destroying one LevelState frees that level's interval map, window
    // ledgers and — through BlockArena — every interval block of the old
    // generation at this level, all without touching the new generation.
    oldest.levels_.pop_back();
    return;
  }
  // Last step for this generation: the old occupancy index and job table.
  retiring_.erase(retiring_.begin());
}

ReservationScheduler::ArenaStats ReservationScheduler::arena_stats(
    unsigned level) const {
  RS_REQUIRE(level >= 1 && level <= top_level(), "arena_stats: level out of range");
  const BlockArena& arena = levels_[level].arena;
  return ArenaStats{arena.block_bytes(), arena.blocks_carved(), arena.blocks_reused(),
                    arena.chunk_count(), arena.bytes_reserved()};
}

void ReservationScheduler::check_window(Window window) const {
  RS_REQUIRE(window.valid(), "ReservationScheduler::insert: empty window");
  RS_REQUIRE(window.aligned(),
             "ReservationScheduler::insert: window must be aligned (use "
             "ReallocatingScheduler for arbitrary windows)");
  RS_REQUIRE(static_cast<u64>(window.span()) <= options_.levels.span_limit(),
             "ReservationScheduler::insert: span exceeds the level table limit");
}

RequestStats ReservationScheduler::insert(JobId id, Window window) {
  check_window(window);
  RS_REQUIRE(!jobs_.contains(id), "ReservationScheduler::insert: id already active");

  // Request-rate sites sample their duration 1-in-8 (exact when tracing);
  // rs.requests carries the exact hit count the sampled histogram lacks,
  // and the cascade histogram records only requests that touched a level
  // (the common zero would be a fetch_add per request for no information —
  // the zero count is rs.requests minus the histogram's count).
  RS_TELEM_COUNTER(kRequests, "rs.requests");
  RS_TELEM_ADD(kRequests, 1);
  RS_TELEM_DURATION(kRequestHist, "rs.request");
  RS_TELEM_SAMPLED_SPAN(request_span, kRequestHist, "rs.insert", 7);
  current_ = RequestStats{};
  touched_levels_mask_ = 0;
  trim_retired_step();
  if (migration_ != nullptr) step_migration(options_.rebuild_batch);
  maybe_rebuild_on_insert();
  insert_impl(id, window);
  if (migration_ != nullptr) {
    migration_->replay.push_back(QueuedRequest{true, id, window});
  }
  current_.levels_touched = static_cast<u64>(std::popcount(touched_levels_mask_));
  if (current_.levels_touched > 0) {
    RS_TELEM_HISTOGRAM(kCascadeHist, "rs.cascade_levels");
    RS_TELEM_RECORD(kCascadeHist, current_.levels_touched);
  }
  maybe_audit();
  return current_;
}

RequestStats ReservationScheduler::erase(JobId id) {
  RS_REQUIRE(jobs_.contains(id), "ReservationScheduler::erase: id not active");
  RS_TELEM_COUNTER(kRequests, "rs.requests");
  RS_TELEM_ADD(kRequests, 1);
  RS_TELEM_DURATION(kRequestHist, "rs.request");
  RS_TELEM_SAMPLED_SPAN(request_span, kRequestHist, "rs.erase", 7);
  current_ = RequestStats{};
  touched_levels_mask_ = 0;
  trim_retired_step();
  if (migration_ != nullptr) step_migration(options_.rebuild_batch);
  erase_impl(id);
  if (migration_ != nullptr) {
    migration_->replay.push_back(QueuedRequest{false, id, Window{}});
  }
  maybe_rebuild_on_erase();
  current_.levels_touched = static_cast<u64>(std::popcount(touched_levels_mask_));
  if (current_.levels_touched > 0) {
    RS_TELEM_HISTOGRAM(kCascadeHist, "rs.cascade_levels");
    RS_TELEM_RECORD(kCascadeHist, current_.levels_touched);
  }
  maybe_audit();
  return current_;
}

Schedule ReservationScheduler::snapshot() const {
  Schedule out(1);
  jobs_.for_each([&](const JobId& id, const JobState& job) {
    RS_CHECK(job.slot != kNoSlot, "snapshot: job without a slot");
    out.assign(id, Placement{0, job.slot});
  });
  return out;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<ReservationScheduler::FulfillmentEntry>
ReservationScheduler::fulfillment_of_interval(unsigned level, Time interval_base) const {
  RS_REQUIRE(level >= 1 && level <= top_level(),
             "fulfillment_of_interval: level out of range");
  const auto& ls = levels_[level];
  RS_REQUIRE(align_down(interval_base, ls.interval_size) == interval_base,
             "fulfillment_of_interval: base not interval-aligned");

  // Use the materialized interval if present; otherwise synthesize the two
  // inputs the cold recomputation needs — base and lower-occupancy count —
  // from the live schedule (fulfillment is a pure function of job counts
  // and lower-level occupancy — Observation 7). No arena block is needed:
  // compute_fulfillment never dereferences the slot table.
  const Interval* interval = ls.intervals.find(interval_base);
  Interval scratch;
  if (interval == nullptr) {
    scratch.base = interval_base;
    const Time end = interval_base + static_cast<Time>(ls.interval_size);
    occ_.for_each_in(interval_base, end, [&](Time, JobId id) {
      if (block_floor(jobs_.at(id)) <= level) ++scratch.lower_count;
    });
    interval = &scratch;
  }

  std::vector<FulfillmentEntry> out;
  // Always recompute cold: the cached table only maintains the fulfilled
  // column up to the level's active bound, while introspection promises the
  // full exact table (and must not observe—or be observed to depend
  // on—cache state).
  const std::vector<FulRow> rows = compute_fulfillment(level, *interval);
  for (unsigned cls = 0; cls < rows.size(); ++cls) {
    const WindowKey key = ls.window_of_class(interval_base, cls);
    out.push_back(FulfillmentEntry{key, ls.windows.find(key) != nullptr,
                                   rows[cls].reservations, rows[cls].fulfilled});
  }
  return out;
}
std::size_t ReservationScheduler::verify_interval_cache(unsigned level, Time base,
                                                        const Interval& interval) const {
  if (interval.ful_state == FulState::kInvalid) return 0;  // recomputed before use
  const auto& ls = levels_[level];
  const std::vector<FulRow> cold = compute_fulfillment(level, interval);
  RS_CHECK(cold.size() == ls.class_count(),
           "fulfillment cache: row count diverged from cold recomputation");
  for (std::size_t i = 0; i < cold.size(); ++i) {
    // The reservation column is promised exact in every non-invalid
    // state; the fulfilled column only below ful_bound once re-cascaded
    // (kValid).
    RS_CHECK(cold[i].reservations == interval.ful_cache[i].reservations,
             "fulfillment cache: cached reservations diverged from cold "
             "recomputation");
    if (interval.ful_state == FulState::kValid && i < interval.ful_bound) {
      RS_CHECK(cold[i].fulfilled == interval.ful_cache[i].fulfilled,
               "fulfillment cache: cached fulfilled diverged from cold "
               "recomputation");
    }
  }
  RS_CHECK(interval.base == base, "fulfillment cache: interval base mismatch");
  return 1;
}

std::size_t ReservationScheduler::verify_fulfillment_cache() const {
  std::size_t verified = 0;
  for (unsigned level = 1; level <= top_level(); ++level) {
    levels_[level].intervals.for_each([&](Time base, const Interval& interval) {
      verified += verify_interval_cache(level, base, interval);
    });
  }
  // The shadow generation's caches obey the same contract mid-migration.
  if (migration_ != nullptr) verified += migration_->shadow->verify_fulfillment_cache();
  return verified;
}

// ---------------------------------------------------------------------------
// Audit: the full sweep, decomposed into the I1-I5 check units, and the
// dirty-region incremental path driven by the audit engine (DESIGN.md §7)
// ---------------------------------------------------------------------------

bool ReservationScheduler::audit_job_body(const JobId& id, const JobState& job) const {
  RS_CHECK(job.slot != kNoSlot, "audit: job without slot");
  RS_CHECK(job.window.contains(job.slot), "audit: job outside trimmed window");
  RS_CHECK(job.original.contains(job.window), "audit: trim not nested in original");
  const JobId* occupant = occ_.find(job.slot);
  RS_CHECK(occupant != nullptr && *occupant == id, "audit: occupant mismatch");
  RS_CHECK(occ_.runs().occupied(job.slot),
           "audit: run index missing an occupied slot");
  RS_CHECK(options_.levels.level_of(static_cast<u64>(job.window.span())) == job.level,
           "audit: level mismatch");
  if (!job.parked && job.level >= 1) {
    const WindowKey key(job.window);
    const ActiveWindow* window = levels_[job.level].windows.find(key);
    RS_CHECK(window != nullptr, "audit: reserved job without active window");
    RS_CHECK(assigned_to(job.level, key, job.slot), "audit: reserved job on unassigned slot");
    RS_CHECK(!window->free_assigned.contains(job.slot),
             "audit: occupied slot marked free");
  }
  return job.parked;
}

void ReservationScheduler::check_jobs_and_occupancy() const {
  // I1 - feasibility and occupancy agreement (audit §1).
  u64 parked_seen = 0;
  jobs_.for_each([&](const JobId& id, const JobState& job) {
    if (audit_job_body(id, job)) ++parked_seen;
  });
  RS_CHECK(parked_seen == parked_count_, "audit: parked count mismatch");
  RS_CHECK(occ_.size() == jobs_.size(), "audit: orphan occupancy entries");
  // n* (§4 trimming): a power of two from kMinNStar up whose trim span 2γn*
  // Time can hold; it moves only with trimming, and bounds the active set.
  RS_CHECK(is_pow2(n_star_) && n_star_ >= trimming::kMinNStar &&
               n_star_ <= (u64{1} << 62) / options_.gamma &&
               (options_.trimming ? jobs_.size() <= n_star_ : n_star_ == trimming::kMinNStar),
           "audit: n* out of range");
  occ_.for_each([&](Time slot, JobId) {
    RS_CHECK(occ_.runs().occupied(slot), "audit: run index missing an occupied slot");
  });
}

void ReservationScheduler::audit_window_body(unsigned level, const WindowKey& key,
                                             const ActiveWindow& window) const {
  window.free_assigned.for_each([&](Time slot) {
    // Anti-orphan: every free slot must be one of the window's assigned
    // cells (the reverse direction - every such cell with no job of the
    // level on it present here - is the interval check's job).
    RS_CHECK(assigned_to(level, key, slot),
             "audit: free slot not backed by an interval assignment");
    const JobId* occupant = occ_.find(slot);
    RS_CHECK(occupant == nullptr || jobs_.at(*occupant).level != level,
             "audit: free_assigned slot holds a same-level job");
  });
}

void ReservationScheduler::check_window_ledgers() const {
  // I2 - window-ledger exactness and census (audit §2).
  for (unsigned level = 1; level <= top_level(); ++level) {
    const auto& ls = levels_[level];
    std::unordered_map<WindowKey, u64> job_counts;
    jobs_.for_each([&](const JobId&, const JobState& job) {
      // Parked jobs keep their reservations, so they count toward x too.
      if (job.level == level) ++job_counts[WindowKey(job.window)];
    });
    std::vector<std::uint32_t> expected_census(ls.class_count(), 0);
    ls.windows.for_each([&](const WindowKey& key, const ActiveWindow& window) {
      ++expected_census[ls.class_of(key)];
      const auto cit = job_counts.find(key);
      const u64 actual = cit == job_counts.end() ? 0 : cit->second;
      RS_CHECK(window.jobs == actual, "audit: window job count mismatch");
      RS_CHECK(window.jobs > 0, "audit: inactive window retained");
      audit_window_body(level, key, window);
    });
    for (unsigned cls = 0; cls < ls.class_count(); ++cls) {
      RS_CHECK(ls.active_per_class[cls] == expected_census[cls],
               "audit: active-window census mismatch");
      RS_CHECK(expected_census[cls] == 0 || cls < ls.active_bound,
               "audit: active bound below an active class");
    }
    RS_CHECK(ls.active_bound == 0 || ls.active_per_class[ls.active_bound - 1] > 0,
             "audit: active bound not tight");
  }
}

void ReservationScheduler::audit_interval_body(unsigned level, Time base,
                                               const Interval& interval) const {
  const auto& ls = levels_[level];
  RS_CHECK(interval.base == base, "audit: interval base mismatch");
  RS_CHECK(align_down(base, ls.interval_size) == base, "audit: interval base not aligned");
  RS_CHECK(interval.slots != nullptr && interval.ful_cache != nullptr &&
               interval.assigned_by_class != nullptr,
           "audit: interval not backed by an arena block");
  std::uint32_t lower = 0;
  std::vector<std::uint32_t> per_class(ls.class_count(), 0);
  for (std::size_t off = 0; off < ls.interval_size; ++off) {
    const SlotInfo& info = interval.slots[off];
    const Time slot = base + static_cast<Time>(off);
    const JobId* occupant = occ_.find(slot);
    const bool expect_lower =
        occupant != nullptr && block_floor(jobs_.at(*occupant)) <= level;
    RS_CHECK(info.lower_occupied == expect_lower, "audit: lower flag mismatch");
    if (info.lower_occupied) ++lower;
    if (info.assigned) {
      RS_CHECK(!info.lower_occupied, "audit: assigned slot is lower-occupied");
      RS_CHECK(info.cls < ls.class_count(), "audit: slot owner class out of range");
      const ActiveWindow* window = ls.windows.find(ls.window_of_class(base, info.cls));
      RS_CHECK(window != nullptr, "audit: slot owned by inactive window");
      // One record per reservation: the cell. The owner's free set holds
      // the slot exactly when no job of this level sits on it.
      const bool free = occupant == nullptr || jobs_.at(*occupant).level != level;
      RS_CHECK(window->free_assigned.contains(slot) == free,
               "audit: owner free set disagrees with the slot's occupant");
      ++per_class[info.cls];
    }
  }
  RS_CHECK(lower == interval.lower_count, "audit: lower_count mismatch");
  u64 mask = 0;
  for (unsigned cls = 0; cls < ls.class_count(); ++cls) {
    RS_CHECK(per_class[cls] == interval.assigned_by_class[cls],
             "audit: per-class assignment count mismatch");
    if (per_class[cls] > 0) mask |= u64{1} << cls;
  }
  RS_CHECK(mask == interval.assigned_class_mask, "audit: assigned class mask mismatch");
  // Lazy invariant: concrete assignments never exceed fulfillment.
  // Checked against a cold recomputation so a stale cache cannot mask a
  // violation.
  const auto rows = compute_fulfillment(level, interval);
  for (unsigned cls = 0; cls < ls.class_count(); ++cls) {
    RS_CHECK(per_class[cls] <= rows[cls].fulfilled,
             "audit: assignment exceeds fulfillment");
  }
}

void ReservationScheduler::check_interval_assignment_bound() const {
  // I3 - interval slot tables and the a <= f bound (audit §3).
  for (unsigned level = 1; level <= top_level(); ++level) {
    levels_[level].intervals.for_each([&](Time base, const Interval& interval) {
      audit_interval_body(level, base, interval);
    });
  }
}

void ReservationScheduler::check_migration_coherence() const {
  // I5 - generation coherence (audit §5): the shadow is a consistent
  // scheduler of the reinserted prefix plus the replayed prefix, and its
  // audit must pass on its own terms; the work-list cursors never run past
  // their lists.
  if (migration_ == nullptr) return;
  const Migration& m = *migration_;
  RS_CHECK(m.shadow != nullptr, "audit: migration without a shadow generation");
  RS_CHECK(m.reinsert_next <= m.reinsert.size() && m.replay_next <= m.replay.size(),
           "audit: migration cursor overran its work list");
  RS_CHECK(m.shadow->n_star_ == n_star_, "audit: shadow n* diverged");
  m.shadow->audit();
}

void ReservationScheduler::audit() const {
  ++full_sweeps_;
  check_invariants();
}

void ReservationScheduler::check_invariants() const {
  check_jobs_and_occupancy();          // §1 / I1
  check_window_ledgers();              // §2 / I2
  check_interval_assignment_bound();   // §3 / I3
  verify_fulfillment_cache();          // §4 / I4 (both generations)
  check_migration_coherence();         // §5 / I5
}

void ReservationScheduler::register_invariants(audit::InvariantTable& table) const {
  const std::string component = "ReservationScheduler";
  table.add("rs.I1.jobs-and-occupancy", component,
            "every active job on one in-window slot; occupancy map, run index "
            "and parked census agree",
            [this] { check_jobs_and_occupancy(); });
  table.add("rs.I2.window-ledgers", component,
            "window job counts match the active set; free-set slots backed by "
            "the window's assigned cells; census/active-bound exact",
            [this] { check_window_ledgers(); });
  table.add("rs.I3.interval-assignment-bound", component,
            "interval slot tables match ground truth; counters exact; an "
            "assigned cell is free in its owner iff no job of its level sits "
            "on it; a(W,I) <= f(W,I) against a cold recomputation",
            [this] { check_interval_assignment_bound(); });
  table.add("rs.I4.fulfillment-cache", component,
            "every cached fulfillment table matches a cold recomputation "
            "(Observation 7 purity)",
            [this] { verify_fulfillment_cache(); });
  table.add("rs.I5.migration-coherence", component,
            "in-flight partitioned rebuild: cursors bounded, shadow n* agrees, "
            "shadow generation self-consistent",
            [this] { check_migration_coherence(); });
}

// ---- incremental path ------------------------------------------------------

void ReservationScheduler::sync_audit_engine() {
  if (options_.audit_policy.mode != audit::Mode::kIncremental) {
    audit_engine_.reset();
    return;
  }
  if (audit_engine_ == nullptr) {
    audit_engine_ = std::make_unique<audit::AuditEngine>(options_.audit_policy);
    for (unsigned level = 1; level <= top_level(); ++level) {
      audit_engine_->configure_level(level, levels_[level].interval_log,
                                     levels_[level].class_count());
    }
    // A fresh engine on an *empty* scheduler can start tracking right away:
    // the all-zero shadows are exactly correct. Attaching mid-stream leaves
    // the escalation in place - the first audit is a full sweep that seeds
    // the shadows from the verified state.
    if (jobs_.empty() && occ_.size() == 0 && migration_ == nullptr) {
      audit_engine_->begin_reseed();
    }
  } else {
    audit_engine_->set_policy(options_.audit_policy);
  }
}

void ReservationScheduler::set_audit_policy(const audit::AuditPolicy& policy) {
  options_.audit_policy = policy;
  sync_audit_engine();
}

void ReservationScheduler::reseed_audit_engine() {
  audit::AuditEngine& engine = *audit_engine_;
  engine.begin_reseed();
  for (unsigned level = 1; level <= top_level(); ++level) {
    const auto& ls = levels_[level];
    ls.windows.for_each([&](const WindowKey& key, const ActiveWindow& window) {
      engine.seed_window(level, key, static_cast<std::int64_t>(window.jobs));
    });
    for (unsigned cls = 0; cls < ls.class_count(); ++cls) {
      engine.seed_census(level, cls, ls.active_per_class[cls]);
    }
  }
  engine.seed_parked(static_cast<std::int64_t>(parked_count_));
}

void ReservationScheduler::audit_job_scoped(JobId id) const {
  const JobState* job = jobs_.find(id);
  if (job == nullptr) return;  // erased after marking (retraction raced)
  audit_job_body(id, *job);
}

void ReservationScheduler::audit_window_scoped(unsigned level,
                                               const WindowKey& w) const {
  const auto& ls = levels_[level];
  const ActiveWindow* window = ls.windows.find(w);
  const std::int64_t expected = audit_engine_->shadow_window_jobs(level, w);
  if (window == nullptr) {
    // Deactivated (or never activated): the shadow must agree there are no
    // jobs left on this window.
    RS_CHECK(expected == 0, "audit: window ledger missing an active window");
    return;
  }
  RS_CHECK(static_cast<std::int64_t>(window->jobs) == expected,
           "audit: window job count diverged from the audit shadow");
  RS_CHECK(window->jobs > 0, "audit: inactive window retained");
  audit_window_body(level, w, *window);
}

void ReservationScheduler::audit_interval_scoped(unsigned level, Time base) const {
  const Interval* interval = levels_[level].intervals.find(base);
  if (interval == nullptr) return;  // torn down wholesale since marked
  audit_interval_body(level, base, *interval);
  verify_interval_cache(level, base, *interval);
}

void ReservationScheduler::audit_globals_scoped() const {
  const audit::AuditEngine& engine = *audit_engine_;
  RS_CHECK(occ_.size() == jobs_.size(), "audit: orphan occupancy entries");
  RS_CHECK(engine.shadow_parked() == static_cast<std::int64_t>(parked_count_),
           "audit: parked count diverged from the audit shadow");
  for (unsigned level = 1; level <= top_level(); ++level) {
    const auto& ls = levels_[level];
    for (unsigned cls = 0; cls < ls.class_count(); ++cls) {
      RS_CHECK(ls.active_per_class[cls] == engine.shadow_census(level, cls),
               "audit: active-window census diverged from the audit shadow");
      RS_CHECK(ls.active_per_class[cls] == 0 || cls < ls.active_bound,
               "audit: active bound below an active class");
    }
    RS_CHECK(ls.active_bound == 0 || ls.active_per_class[ls.active_bound - 1] > 0,
             "audit: active bound not tight");
  }
  // I5 cursors/n* are O(1) too; the shadow generation itself is audited
  // incrementally by the caller.
  if (migration_ != nullptr) {
    const Migration& m = *migration_;
    RS_CHECK(m.shadow != nullptr, "audit: migration without a shadow generation");
    RS_CHECK(m.reinsert_next <= m.reinsert.size() && m.replay_next <= m.replay.size(),
             "audit: migration cursor overran its work list");
    RS_CHECK(m.shadow->n_star_ == n_star_, "audit: shadow n* diverged");
  }
}

void ReservationScheduler::incremental_audit() {
  if (audit_engine_ == nullptr) {
    // No engine attached: honor the call with the only auditor available.
    audit();
    return;
  }
  audit::AuditEngine& engine = *audit_engine_;
  ++engine.stats().incremental_audits;
  if (engine.needs_full()) {
    // Wholesale state change (or mid-stream attach): one full sweep, then
    // reseed the shadows from the state it just verified.
    audit();
    reseed_audit_engine();
    return;
  }
  audit_globals_scoped();
  // While swap carry-over dirt is being paced out, cap the drain at the
  // post-swap budget; an explicit (smaller) steady-state budget still wins.
  std::size_t budget = engine.policy().budget;
  const std::size_t swap_budget = engine.policy().post_swap_budget;
  if (engine.paced_drain() && swap_budget != 0) {
    budget = budget == 0 ? swap_budget : std::min(budget, swap_budget);
  }
  {
    RS_TELEM_DURATION(kDrainHist, "audit.drain");
    RS_TELEM_SPAN(drain_span, kDrainHist, "audit.drain");
    engine.drain(
        budget, [this](JobId id) { audit_job_scoped(id); },
        [this](unsigned level, const WindowKey& w) { audit_window_scoped(level, w); },
        [this](unsigned level, Time base) { audit_interval_scoped(level, base); });
  }
  RS_TELEM_HISTOGRAM(kBacklogHist, "audit.backlog");
  RS_TELEM_RECORD(kBacklogHist, audit_backlog());
  if (migration_ != nullptr) {
    // The shadow accumulates a whole cadence window's reinsertion dirt
    // between parent audits (rebuild_batch × cadence job placements) —
    // draining that in one call was the dominant E15 incremental-latency
    // spike, bigger than the post-swap carry-over itself. Arm the same
    // pacing before every mid-migration shadow audit.
    if (migration_->shadow->audit_engine_ != nullptr) {
      migration_->shadow->audit_engine_->begin_paced_drain();
    }
    migration_->shadow->incremental_audit();
  }
  // A budgeted drain may legitimately leave dirt behind ("detection
  // delayed, never lost" — audit_policy.hpp); only a fully drained pass
  // can promise agreement with the sweep, so the differential cross-check
  // waits for the backlog to clear rather than misreporting per-spec
  // delay as engine divergence.
  if (engine.policy().differential && audit_backlog() == 0) {
    // The incremental pass accepted; the full sweep must agree (the
    // reverse direction - incremental rejecting what the sweep accepts -
    // surfaces as the incremental throw itself, which tests cross-check).
    try {
      audit();
    } catch (const InternalError& error) {
      throw InternalError(
          std::string("differential audit: incremental auditor accepted a "
                      "state the full sweep rejects - ") +
          error.what());
    }
  }
}

void ReservationScheduler::maybe_audit() {
  ++audit_request_index_;
  const audit::AuditPolicy& policy = options_.audit_policy;
  if (!policy.due(audit_request_index_)) return;
  if (policy.mode == audit::Mode::kFull) {
    audit();
    return;
  }
  incremental_audit();
}

ReservationScheduler::AuditWork ReservationScheduler::audit_work() const {
  AuditWork work;
  work.full_sweeps = full_sweeps_;
  if (audit_engine_ != nullptr) {
    const audit::EngineStats& stats = audit_engine_->stats();
    work.incremental_audits = stats.incremental_audits;
    work.regions_checked = stats.regions_checked();
    work.events = stats.events;
  }
  if (migration_ != nullptr) {
    const AuditWork shadow = migration_->shadow->audit_work();
    work.full_sweeps += shadow.full_sweeps;
    work.incremental_audits += shadow.incremental_audits;
    work.regions_checked += shadow.regions_checked;
    work.events += shadow.events;
  }
  return work;
}

std::size_t ReservationScheduler::audit_backlog() const {
  std::size_t backlog = 0;
  if (audit_engine_ != nullptr) backlog += audit_engine_->dirty_regions();
  if (migration_ != nullptr) backlog += migration_->shadow->audit_backlog();
  return backlog;
}

// ---- deliberate corruption (test hook; see Corruption in the header) -------

bool ReservationScheduler::corrupt_for_test(Corruption kind) {
  switch (kind) {
    case Corruption::kDesyncParkedCount:
      // The engine-side witness is note_parked_delta-free on purpose: a
      // buggy mutation path would bump the counter without a real parked
      // placement, which is exactly this.
      ++parked_count_;
      return true;
    case Corruption::kDesyncWindowJobs:
      for (unsigned level = 1; level <= top_level(); ++level) {
        bool done = false;
        levels_[level].windows.for_each([&](const WindowKey& key, ActiveWindow& window) {
          if (done) return;
          ++window.jobs;
          mark_window_dirty(level, key);
          done = true;
        });
        if (done) return true;
      }
      return false;
    case Corruption::kOrphanLedgerSlot:
      for (unsigned level = 1; level <= top_level(); ++level) {
        const auto& ls = levels_[level];
        bool done = false;
        levels_[level].windows.for_each([&](const WindowKey& key, ActiveWindow& window) {
          if (done) return;
          // A free-set slot the cells do not back as free: the window's
          // first slot not already in the set - either no assigned cell of
          // the window backs it, or a job of this level sits on it.
          for (Time slot = key.start;
               slot < key.start + static_cast<Time>(ls.interval_size); ++slot) {
            if (window.free_assigned.insert(slot)) {
              mark_window_dirty(level, key);
              done = true;
              return;
            }
          }
        });
        if (done) return true;
      }
      return false;
    case Corruption::kFlipLowerOccupied:
    case Corruption::kDesyncLowerCount:
      for (unsigned level = 1; level <= top_level(); ++level) {
        bool done = false;
        levels_[level].intervals.for_each([&](Time base, Interval& interval) {
          if (done) return;
          if (kind == Corruption::kFlipLowerOccupied) {
            interval.slots[0].lower_occupied = !interval.slots[0].lower_occupied;
          } else {
            ++interval.lower_count;
          }
          mark_interval_dirty(level, base);
          done = true;
        });
        if (done) return true;
      }
      return false;
  }
  return false;
}

}  // namespace reasched
