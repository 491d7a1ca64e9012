// Slot-occupancy index: who sits where, with O(~1) point lookups and
// gap-skipping range scans.
//
// Replaces the scheduler's ordered std::map<Time, JobId>. The two access
// patterns the hot path needs are (a) "which job occupies slot t" — served
// by an open-addressing FlatHashMap — and (b) "walk the occupants of
// [a, b)" — served by layering on SlotRuns, whose occupancy bitmap
// enumerates occupied slots without visiting gaps. The class keeps both
// structures in
// lockstep so their agreement is an internal invariant rather than a
// caller obligation (the seed maintained occupant_ and runs_ by hand at
// every call site).
//
// `displace` exists for the pecking-order swap tricks: it replaces the
// occupant of an already-occupied slot without touching the run structure,
// which is exactly the "both slots stay occupied" case of Figure-1 MOVE and
// of displacement placements.
#pragma once

#include "base/types.hpp"
#include "schedule/slot_runs.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

class OccupancyIndex {
 public:
  /// Marks the free slot t occupied by `id`.
  void place(Time t, JobId id) {
    const auto [slot, inserted] = slots_.try_emplace(t);
    RS_CHECK(inserted, "OccupancyIndex::place: slot already occupied");
    *slot = id;
    runs_.occupy(t);
  }

  /// Replaces the occupant of the occupied slot t; runs are untouched.
  void displace(Time t, JobId id) {
    JobId* occupant = slots_.find(t);
    RS_CHECK(occupant != nullptr, "OccupancyIndex::displace: slot not occupied");
    *occupant = id;
  }

  /// Frees the occupied slot t.
  void remove(Time t) {
    RS_CHECK(slots_.erase(t) == 1, "OccupancyIndex::remove: slot not occupied");
    runs_.release(t);
  }

  [[nodiscard]] const JobId* find(Time t) const noexcept { return slots_.find(t); }
  [[nodiscard]] JobId at(Time t) const { return slots_.at(t); }
  [[nodiscard]] bool occupied(Time t) const noexcept { return slots_.contains(t); }

  /// Smallest free slot >= t (SlotRuns passthrough).
  [[nodiscard]] Time next_free(Time t) const { return runs_.next_free(t); }

  /// Calls f(slot, JobId) for every occupant in [a, b), increasing slot
  /// order; skips free gaps via the run index.
  template <class F>
  void for_each_in(Time a, Time b, F&& f) const {
    runs_.for_each_occupied(a, b, [&](Time t) { f(t, slots_.at(t)); });
  }

  /// Calls f(slot, JobId) for every occupant, unspecified order.
  template <class F>
  void for_each(F&& f) const {
    slots_.for_each([&](Time t, const JobId& id) { f(t, id); });
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  void reserve(std::size_t count) { slots_.reserve(count); }
  [[nodiscard]] const SlotRuns& runs() const noexcept { return runs_; }

  void clear() {
    slots_.clear();
    runs_ = SlotRuns{};
  }

 private:
  FlatHashMap<Time, JobId> slots_;
  SlotRuns runs_;
};

}  // namespace reasched
