// Open-addressing hash containers for the scheduler hot path.
//
// std::unordered_map pays a heap allocation per node and a pointer chase per
// probe; the reservation scheduler's inner loops (interval lookup, window
// ledgers, occupancy) are dominated by exactly those lookups. FlatHashMap /
// FlatHashSet store slots contiguously (linear probing, power-of-two
// capacity, tombstone deletion) so a lookup is one hash, one masked index
// and a short linear scan over adjacent memory. The scan is *vectorized*
// (DESIGN.md §13): probe loops examine the ctrl-byte array 16 bytes at a
// time through util/probe_group.hpp (SSE2 / NEON / portable-SWAR behind
// one compile-time seam), which changes probe cost but never probe
// results — placements, and therefore schedules, stay byte-identical
// across the SIMD and scalar arms (tests/golden_digest_test.cpp).
//
// Growth is *incremental* (DESIGN.md §8). A stop-the-world
// rehash of a large table is a latency cliff of exactly the shape the
// paper's reallocation bounds amortize away — at n = 10⁵ the occupancy
// table's doubling was the worst per-request latency left after the
// partitioned n*-rebuild (bench E16). So growth mirrors the rebuild's
// two-generation scheme: on reaching the load threshold the map allocates
// the new table and *retires* the old one in place; every subsequent
// insert/erase migrates a bounded batch of old buckets (kMigrateBatch),
// lookups probe the new table first and fall back to the retiring one, and
// an optional drain_rehash(budget) hook lets idle callers finish early.
// Tables below kMinIncrementalCapacity still rehash in place — copying a
// few hundred slots is not a cliff, and the scheduler's many small
// per-window sets keep their seed-identical layouts.
//
// Semantics that differ from the std containers — read before use:
//   * References/iterators are invalidated by any insertion that grows the
//     table, and — while an incremental migration is in flight — by ANY
//     insert or erase (each mutating call may relocate a batch of entries
//     from the retiring table). A find()/try_emplace() that hits an
//     existing key never relocates other entries: lookups of present keys
//     are always reference-stable. Do not hold a reference across a
//     mutating call into the same container.
//   * erase() never moves elements when no migration is in flight
//     (deletion is by tombstone) — the seed contract.
//   * Keys and values must be default-constructible. A slot object lives
//     exactly while its control byte says so: erased slots are destroyed
//     immediately (owned resources released), and slot arrays are
//     allocated uninitialized — table growth never pays a zeroing or
//     construction pass over the new array. The containers are move-only.
//   * Iteration order is unspecified and changes across rehashes and
//     migrations (exactly like the std containers). Nothing in the
//     scheduler may depend on it: every layout-sensitive *choice* point
//     (acquire_slot's fast path, the balance ledger's donor pick) selects a
//     canonical element instead of "first in iteration order", which is
//     what keeps schedules independent of table layout and migration state
//     (tests/golden_digest_test.cpp).
//
// The default hasher bit-mixes integral keys (std::hash is the identity for
// them on common standard libraries, which clusters catastrophically under
// power-of-two masking for strided keys such as interval bases) and defers
// to std::hash otherwise.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"
#include "util/probe_group.hpp"

namespace reasched {

namespace detail {

/// splitmix64 finalizer: full-avalanche mix so low bits are usable as a
/// power-of-two bucket index.
[[nodiscard]] inline std::uint64_t flat_hash_mix(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace detail

template <class K>
struct FlatHash {
  [[nodiscard]] std::size_t operator()(const K& key) const noexcept {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return static_cast<std::size_t>(
          detail::flat_hash_mix(static_cast<std::uint64_t>(key)));
    } else {
      // Project types (JobId, WindowKey, Window) already provide mixing
      // std::hash specializations.
      return std::hash<K>{}(key);
    }
  }
};

template <class K, class V, class Hash = FlatHash<K>>
class FlatHashMap {
  enum Ctrl : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  struct Slot {
    K key{};
    V value{};
  };

  /// Slots live in *uninitialized* storage: ctrl_ alone distinguishes live
  /// slots, and a slot object exists exactly while its ctrl byte is kFull
  /// (constructed in place on insert, destroyed on erase / table release).
  /// Value-initializing a slot array would be pure waste — and at growth
  /// time it is a cliff all of its own: zeroing (or worse,
  /// default-constructing) the doubled array of a 10⁵-entry table is
  /// multi-millisecond work, while an untouched allocation is O(1) with
  /// the page faults amortized over the inserts that first touch it. For
  /// trivially-copyable, trivially-destructible slots (every hot-path
  /// table: occupancy, job states, intervals, bitmap pages) the
  /// constructor/destructor calls compile away entirely and slots are
  /// plain implicit-lifetime values.
  static constexpr bool kTrivialSlots =
      std::is_trivially_copyable_v<Slot> && std::is_trivially_destructible_v<Slot>;

  struct SlotArray {
    static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "raw slot storage relies on operator new's alignment");
    std::unique_ptr<std::byte[]> bytes;

    void allocate(std::size_t n) {
      bytes = std::make_unique_for_overwrite<std::byte[]>(n * sizeof(Slot));
    }
    void reset() { bytes.reset(); }
    [[nodiscard]] Slot* data() const noexcept {
      return reinterpret_cast<Slot*>(bytes.get());
    }
    [[nodiscard]] Slot& operator[](std::size_t i) noexcept { return data()[i]; }
    [[nodiscard]] const Slot& operator[](std::size_t i) const noexcept {
      return data()[i];
    }
  };

  /// Begins the lifetime of the slot at `idx` with `key` and a
  /// default-constructed value. For trivial slots this is two assignments.
  static void construct_slot(SlotArray& slots, std::size_t idx, const K& key) {
    if constexpr (kTrivialSlots) {
      slots[idx].key = key;
      slots[idx].value = V{};
    } else {
      ::new (static_cast<void*>(&slots[idx])) Slot{key, V{}};
    }
  }

  /// Moves the live slot `from` into the (dead) slot at `idx`, ending
  /// `from`'s lifetime.
  static void relocate_slot(SlotArray& slots, std::size_t idx, Slot& from) {
    if constexpr (kTrivialSlots) {
      slots[idx] = from;
    } else {
      ::new (static_cast<void*>(&slots[idx])) Slot{std::move(from)};
      from.~Slot();
    }
  }

  /// Ends the lifetime of the live slot at `idx` (releasing owned
  /// resources immediately). No-op for trivial slots.
  static void destroy_slot(SlotArray& slots, std::size_t idx) {
    if constexpr (!kTrivialSlots) slots[idx].~Slot();
  }

  /// Destroys every live slot of a table (release / destruction paths).
  static void destroy_live_slots(const std::vector<std::uint8_t>& ctrl,
                                 SlotArray& slots) {
    if constexpr (!kTrivialSlots) {
      for (std::size_t i = 0; i < ctrl.size(); ++i) {
        if (ctrl[i] == kFull) slots[i].~Slot();
      }
    }
  }

 public:
  /// Old buckets examined per mutating call while a migration is in
  /// flight. The doubling invariant needs only 2 (old live <= 3/4·C drains
  /// in C/B mutations, while the 2C table absorbs up to 3/4·C net inserts
  /// before its own threshold). Total relocation work is fixed, so B only
  /// sets the *window length* during which every op pays the two-table
  /// probe: 32 keeps windows short enough that the steady-state mean
  /// reached parity with the stop-the-world layout (EXPERIMENTS.md §E12),
  /// while a 32-slot ctrl scan per mutating call stays a fraction of the
  /// 1 ms growth-cliff ceiling (E16: measured max stays in the tens of µs).
  static constexpr std::size_t kMigrateBatch = 32;
  /// Tables smaller than this rehash in place: copying a few hundred
  /// contiguous slots costs microseconds (no cliff), and the scheduler's
  /// many small per-window sets keep their seed-identical layouts.
  static constexpr std::size_t kMinIncrementalCapacity = 1024;

  FlatHashMap() = default;
  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;
  FlatHashMap(FlatHashMap&& other) noexcept : FlatHashMap() { swap(other); }
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      // this's tables move into `empty`, whose destructor destroys the
      // live slots and frees the storage (exactly once).
      FlatHashMap empty;
      swap(empty);
      swap(other);
    }
    return *this;
  }
  ~FlatHashMap() {
    destroy_live_slots(old_ctrl_, old_slots_);
    destroy_live_slots(ctrl_, slots_);
  }

  void swap(FlatHashMap& other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    std::swap(slots_, other.slots_);
    std::swap(old_ctrl_, other.old_ctrl_);
    std::swap(old_slots_, other.old_slots_);
    std::swap(migrate_pos_, other.migrate_pos_);
    std::swap(old_live_, other.old_live_);
    std::swap(size_, other.size_);
    std::swap(used_, other.used_);
    std::swap(migrating_, other.migrating_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ctrl_.size(); }

  /// True while a two-table migration is in flight (a retiring table still
  /// holds entries to move).
  [[nodiscard]] bool rehash_in_flight() const noexcept { return migrating(); }
  /// Live entries still waiting in the retiring table. 0 when none.
  [[nodiscard]] std::size_t migration_pending() const noexcept { return old_live_; }

  /// Migrates up to `budget` retiring buckets now (0 = all) — the optional
  /// idle-drain hook: callers with latency headroom can finish a migration
  /// early instead of riding it out across future mutations. Returns the
  /// number of live entries moved. No-op when no migration is in flight.
  std::size_t drain_rehash(std::size_t budget) {
    if (!migrating()) return 0;
    const std::size_t live_before = old_live_;
    migrate_step(budget == 0 ? old_ctrl_.size() : budget);
    return live_before - old_live_;
  }

  void clear() {
    // Capacity is retained: rebuild-heavy callers (n* resizing) refill to a
    // similar size immediately. A retiring table is dropped wholesale.
    release_old_table();
    if (!ctrl_.empty()) {
      destroy_live_slots(ctrl_, slots_);
      std::fill(ctrl_.begin(), ctrl_.end(), static_cast<std::uint8_t>(kEmpty));
    }
    size_ = 0;
    used_ = 0;
  }

  /// Pre-sizes for `count` entries. Deliberately stop-the-world: reserve is
  /// a bulk-load hint issued when the caller has latency headroom, and a
  /// table sized up front never migrates at all (any in-flight migration is
  /// completed first so the rehash sees one table).
  void reserve(std::size_t count) {
    if (migrating()) finish_migration();
    std::size_t want = 16;
    while (want * 3 < count * 4) want *= 2;
    if (want > capacity()) rehash(want);
  }

  [[nodiscard]] V* find(const K& key) noexcept {
    if (ctrl_.empty()) return nullptr;
    const std::size_t hash = Hash{}(key);
    if (migrating_) [[unlikely]] {
      // Pull the retiring table's ctrl group in while the active table is
      // probed: on an active-table miss the fallback probe finds its line
      // already (or nearly) resident instead of paying a demand miss.
      prefetch_old(hash);
      const std::size_t idx = group_find(ctrl_, slots_, hash, key);
      if (idx != kNpos) return &slots_[idx].value;
      const std::size_t old_idx = group_find(old_ctrl_, old_slots_, hash, key);
      return old_idx != kNpos ? &old_slots_[old_idx].value : nullptr;
    }
    const std::size_t idx = group_find(ctrl_, slots_, hash, key);
    return idx != kNpos ? &slots_[idx].value : nullptr;
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    return const_cast<FlatHashMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return find(key) != nullptr;
  }

  [[nodiscard]] V& at(const K& key) {
    V* value = find(key);
    RS_CHECK(value != nullptr, "FlatHashMap::at: key not found");
    return *value;
  }
  [[nodiscard]] const V& at(const K& key) const {
    const V* value = find(key);
    RS_CHECK(value != nullptr, "FlatHashMap::at: key not found");
    return *value;
  }

  /// Returns {value reference, inserted}. The reference is valid until the
  /// next mutating call that relocates entries (growth, or any mutation
  /// while a migration is in flight). A call that finds an existing key
  /// never relocates *other* entries (upholding the present-key
  /// reference-stability contract above): growth and migration stepping
  /// are checked only once the key is known absent. A key found in the
  /// retiring table is moved to the active table before its (fresh,
  /// stable) address is returned.
  std::pair<V*, bool> try_emplace(const K& key) {
    const std::size_t hash = Hash{}(key);
    if (migrating_) [[unlikely]] return try_emplace_migrating(hash, key);
    if (!ctrl_.empty()) {
      const std::size_t existing = group_find(ctrl_, slots_, hash, key);
      if (existing != kNpos) return {&slots_[existing].value, false};
    }
    grow_if_needed();  // may itself retire the table and start a migration
    return insert_absent(hash, key);
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  bool insert_or_assign(const K& key, V value) {
    auto [slot, inserted] = try_emplace(key);
    *slot = std::move(value);
    return inserted;
  }

  /// erase(), but moves the value out first (one probe where a caller's
  /// find-then-erase would pay two). Returns 1 iff the key was present.
  std::size_t take(const K& key, V& out) {
    if (ctrl_.empty()) return 0;
    const std::size_t hash = Hash{}(key);
    if (migrating_) [[unlikely]] return take_migrating(hash, key, out);
    const std::size_t idx = group_find(ctrl_, slots_, hash, key);
    if (idx == kNpos) return 0;
    out = std::move(slots_[idx].value);
    tombstone_active(idx);
    return 1;
  }

  /// take(key, out) fused with the follow-up `at(reindex_key) = <taken
  /// value>` that DenseHashSet's swap-with-last erase needs: one call
  /// shares the hash/migration bookkeeping and a single drain step where
  /// the unfused pair paid two public entries. The reindex is skipped when
  /// reindex_key == key (erasing the last dense element); otherwise
  /// reindex_key must be present whenever the take succeeds. Requires V
  /// copy-assignable.
  std::size_t take_reindex(const K& key, V& out, const K& reindex_key) {
    if (ctrl_.empty()) return 0;
    const std::size_t hash = Hash{}(key);
    if (migrating_) [[unlikely]] {
      prefetch_old(hash);
      std::size_t taken = 0;
      const std::size_t idx = group_find(ctrl_, slots_, hash, key);
      if (idx != kNpos) {
        out = std::move(slots_[idx].value);
        tombstone_active(idx);
        taken = 1;
      } else {
        const std::size_t old_idx = group_find(old_ctrl_, old_slots_, hash, key);
        if (old_idx != kNpos) {
          out = std::move(old_slots_[old_idx].value);
          tombstone_old(old_idx);
          taken = 1;
        }
      }
      if (taken != 0 && !(reindex_key == key)) reindex_value(reindex_key, out);
      // One drain step for the whole fused operation — an erase advances
      // the migration whether or not the key was present, exactly like
      // erase()/take().
      migrate_step(kMigrateBatch);
      return taken;
    }
    const std::size_t idx = group_find(ctrl_, slots_, hash, key);
    if (idx == kNpos) return 0;
    out = std::move(slots_[idx].value);
    tombstone_active(idx);
    if (!(reindex_key == key)) reindex_value(reindex_key, out);
    return 1;
  }

  std::size_t erase(const K& key) {
    if (ctrl_.empty()) return 0;
    const std::size_t hash = Hash{}(key);
    if (migrating_) [[unlikely]] return erase_migrating(hash, key);
    const std::size_t idx = group_find(ctrl_, slots_, hash, key);
    if (idx == kNpos) return 0;
    tombstone_active(idx);
    return 1;
  }

 private:
  // ---- migration-in-flight slow paths. Split out so the common
  // no-migration case is a straight-line probe behind one predicted branch
  // on the cached migrating_ flag: no retired-table emptiness check, no
  // drain-step call, no second-table probe code on the fast path. Each
  // slow path starts by prefetching the retiring table's ctrl group for
  // this hash (see find()).

  std::pair<V*, bool> try_emplace_migrating(std::size_t hash, const K& key) {
    prefetch_old(hash);
    const std::size_t existing = group_find(ctrl_, slots_, hash, key);
    if (existing != kNpos) return {&slots_[existing].value, false};
    const std::size_t old_idx = group_find(old_ctrl_, old_slots_, hash, key);
    if (old_idx != kNpos) return {relocate_from_old(old_idx, hash), false};
    migrate_step(kMigrateBatch);
    grow_if_needed();  // deferred while migrating; may fire if that drained it
    return insert_absent(hash, key);
  }

  std::size_t take_migrating(std::size_t hash, const K& key, V& out) {
    prefetch_old(hash);
    const std::size_t idx = group_find(ctrl_, slots_, hash, key);
    if (idx != kNpos) {
      out = std::move(slots_[idx].value);
      tombstone_active(idx);
      migrate_step(kMigrateBatch);
      return 1;
    }
    const std::size_t old_idx = group_find(old_ctrl_, old_slots_, hash, key);
    std::size_t erased = 0;
    if (old_idx != kNpos) {
      out = std::move(old_slots_[old_idx].value);
      tombstone_old(old_idx);
      erased = 1;
    }
    // A miss still advances the migration, like any other mutating call.
    migrate_step(kMigrateBatch);
    return erased;
  }

  std::size_t erase_migrating(std::size_t hash, const K& key) {
    prefetch_old(hash);
    const std::size_t idx = group_find(ctrl_, slots_, hash, key);
    std::size_t erased = 0;
    if (idx != kNpos) {
      tombstone_active(idx);
      erased = 1;
    } else {
      const std::size_t old_idx = group_find(old_ctrl_, old_slots_, hash, key);
      if (old_idx != kNpos) {
        tombstone_old(old_idx);
        erased = 1;
      }
    }
    migrate_step(kMigrateBatch);
    return erased;
  }

  /// Destroys the live active-table slot at `idx` and tombstones it.
  void tombstone_active(std::size_t idx) {
    destroy_slot(slots_, idx);  // release owned resources immediately
    ctrl_[idx] = kTombstone;
    --size_;
  }

  /// Same for a retiring-table slot. Tombstone, never empty: the retiring
  /// table's probe chains must survive until every live entry behind them
  /// has migrated.
  void tombstone_old(std::size_t old_idx) {
    destroy_slot(old_slots_, old_idx);
    old_ctrl_[old_idx] = kTombstone;
    --old_live_;
    --size_;
  }

  /// Inserts `key`, known absent from both tables, into the active table.
  std::pair<V*, bool> insert_absent(std::size_t hash, const K& key) {
    const std::size_t idx = group_probe_insert(ctrl_, slots_, hash, key);
    const bool was_tombstone = ctrl_[idx] == kTombstone;
    construct_slot(slots_, idx, key);
    ctrl_[idx] = kFull;
    ++size_;
    if (!was_tombstone) ++used_;
    return {&slots_[idx].value, true};
  }

  /// The `at(reindex_key) = value` half of take_reindex (key known present).
  void reindex_value(const K& reindex_key, const V& value) {
    const std::size_t hash = Hash{}(reindex_key);
    std::size_t idx = group_find(ctrl_, slots_, hash, reindex_key);
    if (idx != kNpos) {
      slots_[idx].value = value;
      return;
    }
    RS_ASSERT(migrating_, "FlatHashMap::take_reindex: reindex key not found");
    idx = group_find(old_ctrl_, old_slots_, hash, reindex_key);
    RS_CHECK(idx != kNpos, "FlatHashMap::take_reindex: reindex key not found");
    old_slots_[idx].value = value;
  }

 public:
  /// f(const K&, V&) over every element, unspecified order. f must not
  /// mutate the map itself.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < old_ctrl_.size(); ++i) {
      if (old_ctrl_[i] == kFull) {
        f(const_cast<const K&>(old_slots_[i].key), old_slots_[i].value);
      }
    }
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) f(const_cast<const K&>(slots_[i].key), slots_[i].value);
    }
  }
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < old_ctrl_.size(); ++i) {
      if (old_ctrl_[i] == kFull) f(old_slots_[i].key, old_slots_[i].value);
    }
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) f(slots_[i].key, slots_[i].value);
    }
  }

  /// Like for_each, but stops early when f returns true. Returns whether f
  /// stopped the scan.
  template <class F>
  bool for_each_until(F&& f) const {
    for (std::size_t i = 0; i < old_ctrl_.size(); ++i) {
      if (old_ctrl_[i] == kFull && f(old_slots_[i].key, old_slots_[i].value)) return true;
    }
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull && f(slots_[i].key, slots_[i].value)) return true;
    }
    return false;
  }

  // ---- serialization (durability tier, DESIGN.md §9) ----
  //
  // A table is written as what it holds: the entry count, then each entry
  // in iteration order. Capacity, tombstones and an in-flight migration are
  // layout, which no decision reads (see the iteration-order note above),
  // so none of it is stored: deserialize() reserves for the count and
  // inserts every entry through the table's own insert path, so a loaded
  // table is one this code built. `write(sink, key, value)` /
  // `read(source, key&, value&)` encode one entry.

  template <class Sink, class WriteEntry>
  void serialize(Sink& sink, WriteEntry&& write) const {
    sink.u64(size_);
    for_each([&](const K& key, const V& value) { write(sink, key, value); });
  }

  /// Replaces the contents with serialize()'s entries. A count beyond the
  /// remaining input (every entry takes at least one byte) and a repeated
  /// key are reported through Source::corrupt; a throw leaves the map
  /// partly loaded.
  template <class Source, class ReadEntry>
  void deserialize(Source& source, ReadEntry&& read) {
    clear();
    const std::uint64_t count = source.u64();
    if (count > source.remaining()) {
      source.corrupt("FlatHashMap::deserialize: count exceeds the input");
    }
    reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      K key{};
      V value{};
      read(source, key, value);
      const auto [slot, inserted] = try_emplace(key);
      if (!inserted) source.corrupt("FlatHashMap::deserialize: duplicate key");
      *slot = std::move(value);
    }
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  [[nodiscard]] bool migrating() const noexcept { return migrating_; }

  // ---- group probe kernels (DESIGN.md §13) --------------------------------
  //
  // All three kernels walk the ctrl array in 16-byte groups *aligned to the
  // group width*: the start group is `(hash & mask) & ~15`, with the bytes
  // before the probe start masked off, and subsequent groups advance by 16
  // modulo the (power-of-two, group-multiple) capacity — so no load ever
  // straddles the table end, and the visit order of candidate slots is
  // exactly the sequential scan's order. On wraparound in a minimum-size
  // table the first (partial) group's bytes are re-examined as part of the
  // final full group; that re-examination is benign — any hit or
  // terminating empty among them would have ended the scan a lap earlier.
  // Every table holds at least one group: every table is built by the
  // grow paths here (reserve included), and each starts at 16 slots.

  [[nodiscard]] static std::size_t group_find(const std::vector<std::uint8_t>& ctrl,
                                              const SlotArray& slots,
                                              std::size_t hash,
                                              const K& key) noexcept {
    const std::size_t cap = ctrl.size();
    const std::size_t mask = cap - 1;
    if (cap == 0) return kNpos;
    const std::size_t start = hash & mask;
    std::size_t group = start & ~(probe::kGroupWidth - 1);
    probe::mask_t valid =
        (probe::kAllBytes << (start - group)) & probe::kAllBytes;
    for (std::size_t scanned = 0; scanned <= cap;
         scanned += probe::kGroupWidth) {
      const probe::Group g(ctrl.data() + group);
      const probe::mask_t empty = g.match(kEmpty) & valid;
      probe::mask_t candidates =
          g.match(kFull) & valid & probe::below_first(empty);
      while (candidates != 0) {
        const std::size_t idx = group + probe::lowest_bit(candidates);
        if (slots[idx].key == key) return idx;
        candidates = probe::clear_lowest(candidates);
      }
      if (empty != 0) return kNpos;
      group = (group + probe::kGroupWidth) & mask;
      valid = probe::kAllBytes;
    }
    return kNpos;  // full lap, no empty: key absent
  }

  /// First slot where `key` lives or may be inserted: an existing full slot
  /// with the key, else the first tombstone on the probe path, else the
  /// terminating empty slot.
  [[nodiscard]] static std::size_t group_probe_insert(
      const std::vector<std::uint8_t>& ctrl, const SlotArray& slots,
      std::size_t hash, const K& key) noexcept {
    const std::size_t cap = ctrl.size();
    const std::size_t mask = cap - 1;
    std::size_t first_tombstone = kNpos;
    const std::size_t start = hash & mask;
    std::size_t group = start & ~(probe::kGroupWidth - 1);
    probe::mask_t valid =
        (probe::kAllBytes << (start - group)) & probe::kAllBytes;
    for (std::size_t scanned = 0; scanned <= cap;
         scanned += probe::kGroupWidth) {
      const probe::Group g(ctrl.data() + group);
      const probe::mask_t empty = g.match(kEmpty) & valid;
      const probe::mask_t below = probe::below_first(empty);
      probe::mask_t candidates = g.match(kFull) & valid & below;
      while (candidates != 0) {
        const std::size_t idx = group + probe::lowest_bit(candidates);
        if (slots[idx].key == key) return idx;
        candidates = probe::clear_lowest(candidates);
      }
      if (first_tombstone == kNpos) {
        const probe::mask_t tombs = g.match(kTombstone) & valid & below;
        if (tombs != 0) first_tombstone = group + probe::lowest_bit(tombs);
      }
      if (empty != 0) {
        return first_tombstone != kNpos ? first_tombstone
                                        : group + probe::lowest_bit(empty);
      }
      group = (group + probe::kGroupWidth) & mask;
      valid = probe::kAllBytes;
    }
    return first_tombstone;  // unreachable while the load invariant holds
  }

  /// Placement slot for a key known absent from the active table (a
  /// migrating or relocating entry): first tombstone on the probe path,
  /// else the terminating empty slot. No key comparisons.
  [[nodiscard]] std::size_t group_probe_absent(std::size_t hash) const noexcept {
    const std::size_t cap = ctrl_.size();
    const std::size_t mask = cap - 1;
    std::size_t first_tombstone = kNpos;
    const std::size_t start = hash & mask;
    std::size_t group = start & ~(probe::kGroupWidth - 1);
    probe::mask_t valid =
        (probe::kAllBytes << (start - group)) & probe::kAllBytes;
    for (std::size_t scanned = 0; scanned <= cap;
         scanned += probe::kGroupWidth) {
      const probe::Group g(ctrl_.data() + group);
      const probe::mask_t empty = g.match(kEmpty) & valid;
      const probe::mask_t below = probe::below_first(empty);
      if (first_tombstone == kNpos) {
        const probe::mask_t tombs = g.match(kTombstone) & valid & below;
        if (tombs != 0) first_tombstone = group + probe::lowest_bit(tombs);
      }
      if (empty != 0) {
        return first_tombstone != kNpos ? first_tombstone
                                        : group + probe::lowest_bit(empty);
      }
      group = (group + probe::kGroupWidth) & mask;
      valid = probe::kAllBytes;
    }
    return first_tombstone;  // unreachable while the load invariant holds
  }

  /// Prefetches the retiring table's ctrl group for `hash` (read, low
  /// locality). Call only while a migration is in flight.
  void prefetch_old(std::size_t hash) const noexcept {
    const std::size_t idx = hash & (old_ctrl_.size() - 1);
    probe::prefetch(old_ctrl_.data() + (idx & ~(probe::kGroupWidth - 1)));
  }

  /// Moves the live retiring-table entry at `old_idx` into the active
  /// table and returns its new value address. The overload taking `hash`
  /// serves relocate-on-touch callers that already hashed the key.
  V* relocate_from_old(std::size_t old_idx) {
    return relocate_from_old(old_idx, Hash{}(old_slots_[old_idx].key));
  }
  V* relocate_from_old(std::size_t old_idx, std::size_t hash) {
    const std::size_t idx = group_probe_absent(hash);
    if (ctrl_[idx] != kTombstone) ++used_;
    relocate_slot(slots_, idx, old_slots_[old_idx]);
    ctrl_[idx] = kFull;
    old_ctrl_[old_idx] = kTombstone;
    --old_live_;
    if (old_live_ == 0) release_old_table();
    return &slots_[idx].value;
  }

  /// Examines up to `budget` retiring buckets from the scan cursor, moving
  /// every live entry found; frees the retiring table once empty. Bucket
  /// examinations (not moves) are the unit, so the per-call cost is a
  /// bounded scan even over tombstone-riddled regions.
  void migrate_step(std::size_t budget) {
    if (!migrating()) return;
    // Drain steps fire on ~every mutation while a migration is in flight;
    // a TraceSpan keeps the metrics-only mode to the count histogram below
    // (durations + chrome spans cost two ticks() reads and arm with trace).
    RS_TELEM_DURATION(kDrainHist, "hash.drain");
    RS_TELEM_TRACE_SPAN(drain_span, kDrainHist, "hash.drain");
    const std::size_t budget_in = budget;
    while (budget > 0 && migrating()) {
      if (old_live_ == 0 || migrate_pos_ >= old_ctrl_.size()) {
        release_old_table();
        break;
      }
      if (old_ctrl_[migrate_pos_] == kFull) {
        relocate_from_old(migrate_pos_);
        if (!migrating()) break;  // that was the last live entry
      }
      ++migrate_pos_;
      --budget;
    }
    RS_TELEM_HISTOGRAM(kDrainBuckets, "hash.drain_buckets");
    RS_TELEM_RECORD(kDrainBuckets, budget_in - budget);
  }

  void finish_migration() { migrate_step(old_ctrl_.size()); }

  void release_old_table() {
    // clear() discards retiring tables wholesale, live entries included.
    destroy_live_slots(old_ctrl_, old_slots_);
    old_ctrl_ = std::vector<std::uint8_t>{};
    old_slots_.reset();
    old_live_ = 0;
    migrate_pos_ = 0;
    migrating_ = false;
  }

  void grow_if_needed() {
    // Max load factor 3/4 counting tombstones (they lengthen probe paths
    // just like live entries).
    if ((used_ + 1) * 4 <= capacity() * 3) return;
    // Growth pressure while a migration is in flight is DEFERRED, not
    // served: finishing or restarting a table move here would be exactly
    // the cliff this scheme removes. The overshoot is bounded — a
    // doubling's active table reaches at most ~0.44 load before the old
    // table drains, a same-capacity purge at most ~0.88 (old live
    // <= 3/4·C plus the <= C/kMigrateBatch mutations the drain takes) —
    // and the first mutation after completion grows normally.
    if (migrating_) return;
    const std::size_t base = capacity() == 0 ? 16 : capacity();
    // Double unless tombstones dominate the load (then rehashing at the
    // same capacity purges them). The incoming insert is counted: at a
    // pure-insert threshold size_·4 == base·3 exactly, and the seed's
    // strict > chose a futile same-capacity rehash one insert before
    // doubling anyway.
    const std::size_t target = (size_ + 1) * 4 > base * 3 ? base * 2 : base;
    if (base >= kMinIncrementalCapacity) {
      start_migration(target);
    } else {
      rehash(target);
    }
  }

  /// Retires the active table and installs a fresh one of `new_capacity`;
  /// entries move over incrementally (migrate_step / drain_rehash).
  void start_migration(std::size_t new_capacity) {
    RS_TELEM_COUNTER(kMigrations, "hash.migrations");
    RS_TELEM_ADD(kMigrations, 1);
    RS_TELEM_INSTANT("hash.migrate.begin");
    old_ctrl_ = std::move(ctrl_);
    old_slots_ = std::move(slots_);
    old_live_ = size_;
    migrate_pos_ = 0;
    migrating_ = true;
    ctrl_.assign(new_capacity, static_cast<std::uint8_t>(kEmpty));
    slots_.allocate(new_capacity);
    used_ = 0;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    SlotArray old_slots = std::move(slots_);
    ctrl_.assign(new_capacity, static_cast<std::uint8_t>(kEmpty));
    slots_.allocate(new_capacity);
    size_ = 0;
    used_ = 0;
    const std::size_t mask = new_capacity - 1;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      std::size_t idx = Hash{}(old_slots[i].key) & mask;
      while (ctrl_[idx] == kFull) idx = (idx + 1) & mask;
      relocate_slot(slots_, idx, old_slots[i]);
      ctrl_[idx] = kFull;
      ++size_;
      ++used_;
    }
  }

  std::vector<std::uint8_t> ctrl_;
  SlotArray slots_;
  /// Retiring table of an in-flight incremental migration (empty when
  /// none). Never inserted into; erased entries become tombstones so the
  /// remaining probe chains stay intact.
  std::vector<std::uint8_t> old_ctrl_;
  SlotArray old_slots_;
  std::size_t migrate_pos_ = 0;  // scan cursor into old_ctrl_
  std::size_t old_live_ = 0;     // live entries left in the retiring table
  std::size_t size_ = 0;  // live entries across both tables
  std::size_t used_ = 0;  // active-table live entries + tombstones
  /// Cached !old_ctrl_.empty(): the fast paths branch on one byte instead
  /// of recomputing vector emptiness per call (maintained by
  /// start_migration / release_old_table / swap).
  bool migrating_ = false;
};

template <class K, class Hash = FlatHash<K>>
class FlatHashSet {
  struct Empty {};

 public:
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }

  void clear() { map_.clear(); }
  void reserve(std::size_t count) { map_.reserve(count); }

  [[nodiscard]] bool rehash_in_flight() const noexcept { return map_.rehash_in_flight(); }
  [[nodiscard]] std::size_t migration_pending() const noexcept {
    return map_.migration_pending();
  }
  std::size_t drain_rehash(std::size_t budget) { return map_.drain_rehash(budget); }

  /// Returns true iff the key was newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  std::size_t erase(const K& key) { return map_.erase(key); }
  [[nodiscard]] bool contains(const K& key) const noexcept { return map_.contains(key); }

  /// f(const K&) over every element, unspecified order.
  template <class F>
  void for_each(F&& f) const {
    map_.for_each([&](const K& key, const Empty&) { f(key); });
  }

  /// Like for_each, but stops early when f returns true. Returns whether f
  /// stopped the scan.
  template <class F>
  bool for_each_until(F&& f) const {
    return map_.for_each_until([&](const K& key, const Empty&) { return f(key); });
  }

  /// Some element (unspecified which); the set must be non-empty. The pick
  /// depends on table layout — a caller whose *behavior* feeds off the
  /// choice must use an insertion-ordered DenseHashSet (back(), or a
  /// deterministic scan) instead, as acquire_slot does (see the
  /// iteration-order note above).
  [[nodiscard]] K any() const {
    RS_CHECK(!map_.empty(), "FlatHashSet::any: empty set");
    K out{};
    map_.for_each_until([&](const K& key, const Empty&) {
      out = key;
      return true;
    });
    return out;
  }

 private:
  FlatHashMap<K, Empty, Hash> map_;
};

/// Hash set with *insertion-ordered, layout-independent* iteration: a dense
/// vector of keys plus a FlatHashMap from key to dense index. erase is
/// swap-with-last (O(1), order changes deterministically). Iteration walks
/// the dense vector, so the order — and therefore any "first element
/// satisfying P" pick — is a pure function of the set's insert/erase
/// sequence, never of hash layout or migration state. The scheduler's
/// choice point that wants a cheap early-exit scan (the acquire_slot fast
/// path) uses this container; that is what
/// keeps schedules independent of table layout
/// (tests/golden_digest_test.cpp) without paying a full-scan canonical
/// minimum per pick. Dense iteration is also faster than probing
/// a sparse table: no empty slots to skip.
template <class K, class Hash = FlatHash<K>>
class DenseHashSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return dense_.size(); }
  [[nodiscard]] bool empty() const noexcept { return dense_.empty(); }

  void clear() {
    dense_.clear();
    index_.clear();
  }
  void reserve(std::size_t count) {
    dense_.reserve(count);
    index_.reserve(count);
  }

  /// Returns true iff the key was newly inserted (appended at the back).
  bool insert(const K& key) {
    const auto [slot, inserted] = index_.try_emplace(key);
    if (!inserted) return false;
    *slot = static_cast<std::uint32_t>(dense_.size());
    dense_.push_back(key);
    return true;
  }

  /// Swap-with-last removal; the displaced last key keeps its identity but
  /// takes the erased key's dense position (a deterministic reordering).
  /// The erased key's index entry is taken and the displaced key's entry
  /// rewritten in ONE fused index call (take_reindex) — the erase path
  /// used to pay two full public-entry passes over the index map.
  std::size_t erase(const K& key) {
    if (dense_.empty()) return 0;
    const K moved = dense_.back();
    std::uint32_t hole = 0;
    if (index_.take_reindex(key, hole, moved) == 0) return 0;
    dense_[hole] = moved;
    dense_.pop_back();
    return 1;
  }

  [[nodiscard]] bool contains(const K& key) const noexcept {
    return index_.contains(key);
  }

  /// Some element in O(1) — the most recently appended. Deterministic
  /// given the set's operation sequence (see the class comment).
  [[nodiscard]] const K& back() const {
    RS_CHECK(!dense_.empty(), "DenseHashSet::back: empty set");
    return dense_.back();
  }

  /// Serializes the dense vector — the container's entire behavior-visible
  /// state. Iteration order (and therefore every back()/first-satisfying-P
  /// pick a recovered scheduler will make) round-trips exactly; the key →
  /// index map is rebuilt by re-insertion on load, since its layout feeds
  /// no decision (class comment). `write(sink, key)` encodes one element.
  template <class Sink, class WriteKey>
  void serialize(Sink& sink, WriteKey&& write) const {
    sink.u64(dense_.size());
    for (const K& key : dense_) write(sink, key);
  }
  template <class Source, class ReadKey>
  void deserialize(Source& source, ReadKey&& read) {
    clear();
    const std::uint64_t count = source.u64();
    // Every element takes at least one byte of input.
    if (count > source.remaining()) {
      source.corrupt("DenseHashSet::deserialize: count exceeds the input");
    }
    dense_.reserve(static_cast<std::size_t>(count));
    index_.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      K key{};
      read(source, key);
      const auto [slot, inserted] = index_.try_emplace(key);
      if (!inserted) source.corrupt("DenseHashSet::deserialize: duplicate key");
      *slot = static_cast<std::uint32_t>(dense_.size());
      dense_.push_back(key);
    }
  }

  /// f(const K&) in insertion order (as reshuffled by swap-pop erases).
  template <class F>
  void for_each(F&& f) const {
    for (const K& key : dense_) f(key);
  }

  /// Like for_each, but stops early when f returns true. Returns whether f
  /// stopped the scan.
  template <class F>
  bool for_each_until(F&& f) const {
    for (const K& key : dense_) {
      if (f(key)) return true;
    }
    return false;
  }

 private:
  std::vector<K> dense_;
  FlatHashMap<K, std::uint32_t, Hash> index_;
};

}  // namespace reasched
