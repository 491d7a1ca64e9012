// Dirty-region bookkeeping for the incremental audit engine.
//
// Two containers, both built on util/flat_hash.hpp and both supporting
// *budgeted* draining (verify at most k regions now, keep the rest dirty —
// the AuditPolicy::budget slice):
//
//   * PagedDirtySet — a paged bitmap over a sparse signed integer key space
//     (interval indices), the same 64-keys-per-word page scheme SlotRuns
//     uses for slot occupancy. Marking is one hash probe and an OR; memory
//     is one u64 per 64 adjacent dirty keys, which matches how interval
//     dirtiness clusters (neighboring intervals of a hot window).
//
//   * DirtyQueue<K> — an insertion-ordered dedup queue for hashable keys
//     (WindowKey, JobId): a FIFO vector paired with a membership set, so
//     budgeted drains re-verify the *oldest* dirt first and nothing is ever
//     enqueued twice. unmark() supports retraction (a job erased after
//     being marked has nothing left to verify).
//
// Neither container is thread-safe; each instance belongs to one owner
// (a scheduler's audit engine, a balance ledger) and is touched only by the
// thread that mutates that owner.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hpp"
#include "util/bits.hpp"
#include "util/flat_hash.hpp"

namespace reasched::audit {

class PagedDirtySet {
 public:
  /// Marks `key` dirty. Returns true iff it was newly marked.
  bool mark(Time key) {
    const Time page = page_of(key);
    const auto [bits, inserted] = pages_.try_emplace(page);
    const u64 bit = bit_of(key);
    if (*bits & bit) return false;
    // Newly populated page (fresh entry, or an entry fully drained earlier
    // and not yet erased): (re-)enqueue it for the drain cursor.
    if (*bits == 0) queue_.push_back(page);
    *bits |= bit;
    ++count_;
    return true;
  }

  [[nodiscard]] bool contains(Time key) const {
    const u64* bits = pages_.find(page_of(key));
    return bits != nullptr && (*bits & bit_of(key));
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  void clear() {
    pages_.clear();
    queue_.clear();
    head_ = 0;
    count_ = 0;
  }

  /// Removes up to `budget` dirty keys (0 = all), calling f(key) for each
  /// after it has been unmarked. f must not mark keys on this set's owner
  /// thread-unsafely; re-marking the drained key from within f is allowed
  /// and simply re-dirties it. If f throws, the key it was inspecting and
  /// every not-yet-visited key of the batch are re-marked before the
  /// exception propagates — a failed check must never consume the dirt
  /// that triggered it ("detection delayed, never lost"). Returns the
  /// number of keys drained.
  template <class F>
  std::size_t drain(std::size_t budget, F&& f) {
    std::size_t done = 0;
    std::vector<Time> batch;
    while (head_ < queue_.size() && (budget == 0 || done < budget)) {
      const Time page = queue_[head_];
      u64* bits = pages_.find(page);
      if (bits == nullptr || *bits == 0) {
        ++head_;  // stale queue entry (drained earlier or duplicate)
        continue;
      }
      // Detach the keys we will visit *before* calling f: f may legally
      // mark other keys, which can rehash pages_ and invalidate `bits`.
      u64 take = *bits;
      if (budget != 0) {
        const std::size_t room = budget - done;
        while (static_cast<std::size_t>(std::popcount(take)) > room) {
          // Drop the highest bit until the batch fits the budget slice.
          take &= ~(u64{1} << (63 - std::countl_zero(take)));
        }
      }
      *bits &= ~take;
      const bool page_done = (*bits == 0);
      count_ -= static_cast<std::size_t>(std::popcount(take));
      batch.clear();
      while (take != 0) {
        const unsigned off = static_cast<unsigned>(std::countr_zero(take));
        take &= take - 1;
        batch.push_back(page * 64 + static_cast<Time>(off));
      }
      if (page_done) ++head_;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        try {
          f(batch[i]);
        } catch (...) {
          for (std::size_t j = i; j < batch.size(); ++j) mark(batch[j]);
          throw;
        }
        ++done;
      }
    }
    if (head_ >= queue_.size()) {
      queue_.clear();
      head_ = 0;
    }
    return done;
  }

 private:
  [[nodiscard]] static Time page_of(Time key) noexcept { return key >> 6; }
  [[nodiscard]] static u64 bit_of(Time key) noexcept {
    return u64{1} << static_cast<unsigned>(key & 63);
  }

  FlatHashMap<Time, u64> pages_;  // page index -> dirty bits
  std::vector<Time> queue_;       // pages in first-dirtied order
  std::size_t head_ = 0;          // drain cursor into queue_
  std::size_t count_ = 0;
};

template <class K, class Hash = FlatHash<K>>
class DirtyQueue {
 public:
  /// Marks `key` dirty. Returns true iff it was newly marked.
  bool mark(const K& key) {
    if (!members_.insert(key)) return false;
    queue_.push_back(key);
    return true;
  }

  /// Retracts a mark (e.g. the marked job was erased). The queue entry is
  /// skipped lazily at drain time.
  void unmark(const K& key) { members_.erase(key); }

  [[nodiscard]] bool contains(const K& key) const { return members_.contains(key); }
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }

  void clear() {
    queue_.clear();
    head_ = 0;
    members_.clear();
  }

  /// Removes up to `budget` dirty keys in FIFO order (0 = all), calling
  /// f(key) for each after it has been unmarked. If f throws, the key is
  /// re-marked before the exception propagates — a failed check must never
  /// consume the dirt that triggered it. Returns the drain count.
  template <class F>
  std::size_t drain(std::size_t budget, F&& f) {
    std::size_t done = 0;
    while (head_ < queue_.size() && (budget == 0 || done < budget)) {
      const K key = queue_[head_++];
      if (members_.erase(key) == 0) continue;  // retracted or duplicate
      try {
        f(key);
      } catch (...) {
        --head_;  // the key is still at queue_[head_]; restore membership
        members_.insert(key);
        throw;
      }
      ++done;
    }
    if (head_ >= queue_.size()) {
      queue_.clear();
      head_ = 0;
    }
    return done;
  }

 private:
  std::vector<K> queue_;
  std::size_t head_ = 0;
  FlatHashSet<K, Hash> members_;
};

}  // namespace reasched::audit
