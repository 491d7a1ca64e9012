// Occupancy bitmap over a sparse timeline.
//
// Tracks the set of occupied slots as 64-slot bitmap pages in an
// open-addressing hash map, plus a small ordered map of maximal runs of
// *completely full* pages. Point updates and point queries are O(~1) (one
// hash probe and a couple of bit operations; the ordered map is touched
// only on the rare fill/unfill transition of a whole page), and
// "first free slot at or after t" stays fast even inside a solidly packed
// prefix: a full page is skipped run-at-a-time through the full-page run
// map, exactly the O(log) jump the previous coalesced-run representation
// provided — without paying a red-black-tree rebalance on every single
// occupy/release.
//
// A second-level *summary* bitmap (one bit per page, 64 pages per summary
// word) tracks which pages hold any occupant, so the occupied-slot scans
// (next_occupied, for_each_occupied) probe only populated pages: a sparse
// scan over a wide range costs one hash probe per 4096-slot summary word
// plus one per *populated* page, instead of one per page in the range.
// scan_page_probes() exposes the page-probe count for the test suite's
// micro-asserts.
//
// First-fit schedulers use next_free/prev_free to jump over packed
// prefixes; the reservation scheduler's OccupancyIndex layers job identity
// on top and uses for_each_occupied for gap-skipping range scans.
#pragma once

#include <bit>
#include <limits>
#include <map>

#include "base/types.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

class SlotRuns {
 public:
  /// Sentinel returned by next_occupied when no occupied slot exists >= t.
  static constexpr Time kNone = std::numeric_limits<Time>::max();

  /// Marks slot t occupied. Precondition: currently free.
  void occupy(Time t) {
    u64& bits = pages_[page_of(t)];
    const u64 bit = bit_of(t);
    RS_CHECK(!(bits & bit), "SlotRuns::occupy: slot already occupied");
    if (bits == 0) summary_[super_of(page_of(t))] |= page_bit(page_of(t));
    bits |= bit;
    if (bits == kFull) full_page_occupy(page_of(t));
    if (!any_ || page_of(t) > max_page_) max_page_ = page_of(t);
    any_ = true;
  }

  /// Marks slot t free. Precondition: currently occupied.
  void release(Time t) {
    u64* bits = pages_.find(page_of(t));
    const u64 bit = bit_of(t);
    RS_CHECK(bits != nullptr && (*bits & bit), "SlotRuns::release: slot not occupied");
    if (*bits == kFull) full_page_release(page_of(t));
    *bits &= ~bit;
    if (*bits == 0) {
      u64& word = summary_.at(super_of(page_of(t)));
      word &= ~page_bit(page_of(t));
      if (word == 0) summary_.erase(super_of(page_of(t)));
    }
  }

  [[nodiscard]] bool occupied(Time t) const {
    const u64* bits = pages_.find(page_of(t));
    return bits != nullptr && (*bits & bit_of(t));
  }

  /// Smallest free slot >= t.
  [[nodiscard]] Time next_free(Time t) const {
    Time page = page_of(t);
    unsigned off = offset_of(t);
    while (true) {
      const u64* bits = pages_.find(page);
      const u64 occupied_bits = bits ? *bits : 0;
      if (occupied_bits == kFull) {
        // Skip the whole maximal run of full pages in one ordered lookup.
        page = full_run_end(page);
        off = 0;
        continue;
      }
      const u64 free_bits = ~occupied_bits & mask_ge(off);
      if (free_bits != 0) {
        return page * kPageSize + static_cast<Time>(std::countr_zero(free_bits));
      }
      ++page;  // free bits exist but all below off; next page resolves
      off = 0;
    }
  }

  /// Largest free slot <= t.
  [[nodiscard]] Time prev_free(Time t) const {
    Time page = page_of(t);
    unsigned off = offset_of(t);
    while (true) {
      const u64* bits = pages_.find(page);
      const u64 occupied_bits = bits ? *bits : 0;
      if (occupied_bits == kFull) {
        page = full_run_start(page) - 1;
        off = kPageSize - 1;
        continue;
      }
      const u64 free_bits = ~occupied_bits & mask_le(off);
      if (free_bits != 0) {
        return page * kPageSize +
               static_cast<Time>(kPageSize - 1 - std::countl_zero(free_bits));
      }
      --page;
      off = kPageSize - 1;
    }
  }

  /// True iff every slot of [a, b) is occupied.
  [[nodiscard]] bool covered(Time a, Time b) const { return next_free(a) >= b; }

  /// Smallest occupied slot >= t, or kNone. Cost: one summary probe per
  /// 4096-slot span crossed plus one page probe per populated page visited.
  [[nodiscard]] Time next_occupied(Time t) const {
    if (!any_) return kNone;
    const Time first_page = page_of(t);
    const unsigned off = offset_of(t);
    const Time last_super = super_of(max_page_);
    for (Time super = super_of(first_page); super <= last_super; ++super) {
      const u64* word = summary_.find(super);
      u64 populated = word ? *word : 0;
      if (super == super_of(first_page)) populated &= mask_ge(page_offset(first_page));
      while (populated != 0) {
        const Time page =
            super * kPageSize + static_cast<Time>(std::countr_zero(populated));
        populated &= populated - 1;
        const u64* bits = pages_.find(page);
        ++scan_page_probes_;
        const u64 hits = (bits ? *bits : 0) & (page == first_page ? mask_ge(off) : kFull);
        if (hits != 0) {
          return page * kPageSize + static_cast<Time>(std::countr_zero(hits));
        }
      }
    }
    return kNone;
  }

  /// Calls f(t) for every occupied slot t in [a, b), in increasing order.
  /// Cost: one summary probe per 4096-slot span of the range plus one page
  /// probe per *populated* page plus one bit scan per occupant.
  template <class F>
  void for_each_occupied(Time a, Time b, F&& f) const {
    if (a >= b) return;
    const Time first_page = page_of(a);
    const Time last_page = page_of(b - 1);
    for (Time super = super_of(first_page); super <= super_of(last_page); ++super) {
      const u64* word = summary_.find(super);
      if (word == nullptr) continue;
      u64 populated = *word;
      if (super == super_of(first_page)) populated &= mask_ge(page_offset(first_page));
      if (super == super_of(last_page)) populated &= mask_le(page_offset(last_page));
      while (populated != 0) {
        const Time page =
            super * kPageSize + static_cast<Time>(std::countr_zero(populated));
        populated &= populated - 1;
        const u64* bits = pages_.find(page);
        ++scan_page_probes_;
        u64 hits = bits ? *bits : 0;
        if (page == first_page) hits &= mask_ge(offset_of(a));
        if (page == last_page) hits &= mask_le(offset_of(b - 1));
        while (hits != 0) {
          const unsigned off = static_cast<unsigned>(std::countr_zero(hits));
          f(page * kPageSize + static_cast<Time>(off));
          hits &= hits - 1;
        }
      }
    }
  }

  /// Page-level hash probes performed by next_occupied/for_each_occupied
  /// since the last reset — the quantity the summary bitmap bounds by the
  /// number of *populated* pages (diagnostics/tests).
  [[nodiscard]] std::size_t scan_page_probes() const noexcept {
    return scan_page_probes_;
  }
  void reset_scan_page_probes() noexcept { scan_page_probes_ = 0; }

  /// Number of maximal occupied runs (diagnostics/tests; O(pages)).
  [[nodiscard]] std::size_t run_count() const {
    std::size_t count = 0;
    pages_.for_each([&](Time page, const u64& bits) {
      if (bits == 0) return;
      // A run starts at every set bit whose predecessor is clear; the
      // predecessor of bit 0 is the previous page's top bit.
      std::size_t starts = static_cast<std::size_t>(std::popcount(bits & ~(bits << 1)));
      if (bits & 1) {
        const u64* prev = pages_.find(page - 1);
        if (prev != nullptr && (*prev >> (kPageSize - 1))) --starts;
      }
      count += starts;
    });
    return count;
  }

 private:
  static constexpr Time kPageSize = 64;
  static constexpr u64 kFull = ~u64{0};

  [[nodiscard]] static Time page_of(Time t) noexcept { return t >> 6; }
  [[nodiscard]] static Time super_of(Time page) noexcept { return page >> 6; }
  [[nodiscard]] static unsigned offset_of(Time t) noexcept {
    return static_cast<unsigned>(t & 63);
  }
  /// Position of `page` inside its summary word.
  [[nodiscard]] static unsigned page_offset(Time page) noexcept {
    return static_cast<unsigned>(page & 63);
  }
  [[nodiscard]] static u64 page_bit(Time page) noexcept {
    return u64{1} << page_offset(page);
  }
  [[nodiscard]] static u64 bit_of(Time t) noexcept { return u64{1} << offset_of(t); }
  [[nodiscard]] static u64 mask_ge(unsigned off) noexcept {
    return kFull << off;  // bits off..63
  }
  [[nodiscard]] static u64 mask_le(unsigned off) noexcept {
    return kFull >> (kPageSize - 1 - off);  // bits 0..off
  }

  /// One-past-the-end of the maximal full-page run containing `page`.
  [[nodiscard]] Time full_run_end(Time page) const {
    auto it = full_runs_.upper_bound(page);
    RS_CHECK(it != full_runs_.begin(), "SlotRuns: full page missing from run map");
    --it;
    RS_CHECK(it->first <= page && page < it->second,
             "SlotRuns: full page missing from run map");
    return it->second;
  }

  /// Start of the maximal full-page run containing `page`.
  [[nodiscard]] Time full_run_start(Time page) const {
    auto it = full_runs_.upper_bound(page);
    RS_CHECK(it != full_runs_.begin(), "SlotRuns: full page missing from run map");
    --it;
    RS_CHECK(it->first <= page && page < it->second,
             "SlotRuns: full page missing from run map");
    return it->first;
  }

  /// Coalesced insertion of `page` into the full-page run map.
  void full_page_occupy(Time page) {
    auto succ = full_runs_.find(page + 1);
    auto pred = full_runs_.upper_bound(page);
    const bool joins_pred = pred != full_runs_.begin() && (--pred)->second == page;
    const bool joins_succ = succ != full_runs_.end();
    if (joins_pred && joins_succ) {
      pred->second = succ->second;
      full_runs_.erase(succ);
    } else if (joins_pred) {
      pred->second = page + 1;
    } else if (joins_succ) {
      const Time end = succ->second;
      full_runs_.erase(succ);
      full_runs_.emplace(page, end);
    } else {
      full_runs_.emplace(page, page + 1);
    }
  }

  /// Splitting removal of `page` from the full-page run map.
  void full_page_release(Time page) {
    auto it = full_runs_.upper_bound(page);
    RS_CHECK(it != full_runs_.begin(), "SlotRuns: releasing page not in run map");
    --it;
    RS_CHECK(it->first <= page && page < it->second,
             "SlotRuns: releasing page not in run map");
    const Time start = it->first;
    const Time end = it->second;
    full_runs_.erase(it);
    if (start < page) full_runs_.emplace(start, page);
    if (page + 1 < end) full_runs_.emplace(page + 1, end);
  }

  FlatHashMap<Time, u64> pages_;    // page index -> occupancy bits
  FlatHashMap<Time, u64> summary_;  // summary index -> populated-page bits
  std::map<Time, Time> full_runs_;  // maximal runs of completely full pages
  Time max_page_ = 0;               // valid iff any_; grows monotonically
  bool any_ = false;
  mutable std::size_t scan_page_probes_ = 0;  // diagnostics (see accessor)
};

}  // namespace reasched
