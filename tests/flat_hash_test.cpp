#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "base/types.hpp"
#include "durability/codec.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

TEST(FlatHashMap, BasicInsertFindErase) {
  FlatHashMap<Time, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);

  map[7] = 42;
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 42);
  EXPECT_EQ(map.at(7), 42);
  EXPECT_TRUE(map.contains(7));

  EXPECT_EQ(map.erase(7), 1u);
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(7));
}

TEST(FlatHashMap, TryEmplaceReportsInsertion) {
  FlatHashMap<Time, int> map;
  auto [first, inserted1] = map.try_emplace(5);
  EXPECT_TRUE(inserted1);
  *first = 10;
  auto [second, inserted2] = map.try_emplace(5);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*second, 10);
}

TEST(FlatHashMap, AtThrowsOnMissingKey) {
  FlatHashMap<Time, int> map;
  EXPECT_THROW((void)map.at(3), InternalError);
}

TEST(FlatHashMap, StridedKeysStaySpread) {
  // Interval bases are strided (multiples of 32/256); the identity hash of
  // common standard libraries clusters them catastrophically under
  // power-of-two masking — the default FlatHash must not.
  FlatHashMap<Time, int> map;
  for (Time t = 0; t < 4096 * 256; t += 256) map[t] = 1;
  EXPECT_EQ(map.size(), 4096u);
  for (Time t = 0; t < 4096 * 256; t += 256) EXPECT_TRUE(map.contains(t));
}

TEST(FlatHashMap, NegativeKeys) {
  FlatHashMap<Time, int> map;
  map[-1] = 1;
  map[-64] = 2;
  map[0] = 3;
  EXPECT_EQ(map.at(-1), 1);
  EXPECT_EQ(map.at(-64), 2);
  EXPECT_EQ(map.at(0), 3);
}

TEST(FlatHashMap, ErasedSlotsAreReusedAndValuesReset) {
  FlatHashMap<Time, std::string> map;
  map[1] = "payload";
  EXPECT_EQ(map.erase(1), 1u);
  // Re-inserting the key finds a default-constructed value, not the relic.
  auto [slot, inserted] = map.try_emplace(1);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(slot->empty());
}

TEST(FlatHashMap, RandomizedAgainstStdUnorderedMap) {
  FlatHashMap<Time, std::uint64_t> map;
  std::unordered_map<Time, std::uint64_t> reference;
  Rng rng(2024);
  for (int step = 0; step < 20'000; ++step) {
    const Time key = static_cast<Time>(rng.uniform(0, 999)) - 500;
    const auto op = rng.uniform(0, 2);
    if (op == 0) {
      const std::uint64_t value = rng();
      map[key] = value;
      reference[key] = value;
    } else if (op == 1) {
      EXPECT_EQ(map.erase(key), reference.erase(key));
    } else {
      const auto it = reference.find(key);
      const auto* found = map.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end());
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
    if (step % 1000 == 0) {
      ASSERT_EQ(map.size(), reference.size());
      std::size_t seen = 0;
      map.for_each([&](Time k, const std::uint64_t& v) {
        ++seen;
        const auto it = reference.find(k);
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(v, it->second);
      });
      EXPECT_EQ(seen, reference.size());
    }
  }
}

TEST(FlatHashMap, ClearRetainsCapacityAndEmpties) {
  FlatHashMap<Time, int> map;
  for (Time t = 0; t < 1000; ++t) map[t] = 1;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(5));
  map[5] = 9;
  EXPECT_EQ(map.at(5), 9);
}

// ---- incremental two-table rehash (DESIGN.md §8) ---------------------------

// Inserts ascending keys until a two-table migration starts; returns the
// next unused key. Requires incremental mode (the default).
template <class Map>
Time push_until_migrating(Map& map) {
  Time key = 0;
  while (!map.rehash_in_flight()) {
    map[key] = static_cast<int>(key);
    ++key;
  }
  return key;
}

TEST(FlatHashMapRehash, SmallTablesNeverMigrate) {
  FlatHashMap<Time, int> map;
  // Below kMinIncrementalCapacity growth stays in place: no cliff to
  // amortize at these sizes.
  for (Time t = 0; t < 500; ++t) {
    map[t] = 1;
    EXPECT_FALSE(map.rehash_in_flight());
  }
}

TEST(FlatHashMapRehash, LookupsServedFromBothTablesDuringMigration) {
  FlatHashMap<Time, int> map;
  const Time next = push_until_migrating(map);
  ASSERT_TRUE(map.rehash_in_flight());
  EXPECT_GT(map.migration_pending(), 0u);
  // Every key inserted so far is findable mid-migration, whichever table
  // currently holds it.
  for (Time t = 0; t < next; ++t) {
    ASSERT_NE(map.find(t), nullptr);
    ASSERT_EQ(*map.find(t), static_cast<int>(t));
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(next));
}

TEST(FlatHashMapRehash, MigrationCompletesUnderMutationLoad) {
  FlatHashMap<Time, int> map;
  Time next = push_until_migrating(map);
  // Ride the migration out on ordinary inserts only: the bounded batch per
  // mutation must drain the retiring table long before the next doubling.
  std::size_t mutations = 0;
  while (map.rehash_in_flight()) {
    map[next] = static_cast<int>(next);
    ++next;
    ++mutations;
  }
  EXPECT_LE(mutations, map.capacity());  // drained well before refilling
  EXPECT_EQ(map.migration_pending(), 0u);
  for (Time t = 0; t < next; ++t) ASSERT_EQ(map.at(t), static_cast<int>(t));
}

TEST(FlatHashMapRehash, EraseDuringMigration) {
  FlatHashMap<Time, int> map;
  const Time next = push_until_migrating(map);
  ASSERT_TRUE(map.rehash_in_flight());
  // Erase a spread of keys mid-migration: some still sit in the retiring
  // table, some have already moved. Probe chains in the retiring table
  // must survive (tombstones, never empties).
  std::size_t erased = 0;
  for (Time t = 0; t < next; t += 3) erased += map.erase(t);
  EXPECT_EQ(erased, static_cast<std::size_t>((next + 2) / 3));
  for (Time t = 0; t < next; ++t) {
    if (t % 3 == 0) {
      ASSERT_EQ(map.find(t), nullptr);
    } else {
      ASSERT_NE(map.find(t), nullptr);
      ASSERT_EQ(*map.find(t), static_cast<int>(t));
    }
  }
  map.drain_rehash(0);
  EXPECT_FALSE(map.rehash_in_flight());
  EXPECT_EQ(map.size(), static_cast<std::size_t>(next) - erased);
}

TEST(FlatHashMapRehash, DrainRehashBudgetedAndFull) {
  FlatHashMap<Time, int> map;
  push_until_migrating(map);
  const std::size_t pending = map.migration_pending();
  ASSERT_GT(pending, 16u);
  // A budgeted drain examines at most `budget` buckets, so it moves at
  // most that many entries and leaves the rest pending.
  const std::size_t moved = map.drain_rehash(16);
  EXPECT_LE(moved, 16u);
  EXPECT_TRUE(map.rehash_in_flight());
  EXPECT_EQ(map.migration_pending(), pending - moved);
  // Budget 0 = drain everything.
  map.drain_rehash(0);
  EXPECT_FALSE(map.rehash_in_flight());
  EXPECT_EQ(map.migration_pending(), 0u);
}

TEST(FlatHashMapRehash, ReserveSkipsMigrationEntirely) {
  FlatHashMap<Time, int> map;
  map.reserve(100'000);
  for (Time t = 0; t < 100'000; ++t) {
    map[t] = 1;
    ASSERT_FALSE(map.rehash_in_flight());
  }
}

TEST(FlatHashMapRehash, ReserveFinishesInFlightMigration) {
  FlatHashMap<Time, int> map;
  const Time next = push_until_migrating(map);
  ASSERT_TRUE(map.rehash_in_flight());
  map.reserve(100'000);
  EXPECT_FALSE(map.rehash_in_flight());
  for (Time t = 0; t < next; ++t) ASSERT_EQ(map.at(t), static_cast<int>(t));
}

TEST(FlatHashMapRehash, PresentKeyCallsAreReferenceStableDuringMigration) {
  FlatHashMap<Time, int> map;
  const Time next = push_until_migrating(map);
  ASSERT_TRUE(map.rehash_in_flight());
  // A try_emplace that hits a key in the retiring table relocates exactly
  // that entry; addresses of other already-active entries must not move.
  const Time fresh = next;  // not yet inserted
  map[fresh] = 7;           // forces a migration batch; some keys now active
  std::vector<std::pair<Time, int*>> pinned;
  for (Time t = 0; t < next && pinned.size() < 8; ++t) {
    // Relocate-on-touch guarantees the returned address is in the active
    // table and stable under further present-key calls.
    pinned.emplace_back(t, map.try_emplace(t).first);
  }
  for (auto& [key, address] : pinned) {
    EXPECT_EQ(map.try_emplace(key).first, address);
    EXPECT_EQ(map.find(key), address);
  }
}

TEST(FlatHashMap, MoveAssignOntoNonEmptyDestroysOnce) {
  // Move-assignment onto a map holding non-trivial values must destroy
  // the overwritten slots exactly once (regression: a double-destroy here
  // was a double-free under ASan).
  FlatHashMap<Time, std::string> target;
  for (Time t = 0; t < 64; ++t) target[t] = "overwritten";
  FlatHashMap<Time, std::string> source;
  source[7] = "kept";
  target = std::move(source);
  ASSERT_EQ(target.size(), 1u);
  EXPECT_EQ(target.at(7), "kept");
  // Self-move and moved-from reuse stay well-formed.
  FlatHashMap<Time, std::string> fresh;
  fresh[1] = "x";
  fresh = std::move(fresh);
  EXPECT_EQ(fresh.at(1), "x");
}

TEST(FlatHashMapRehash, TombstoneHeavyChurnMatchesReference) {
  // Heavy insert/erase churn in a bounded key range drives tombstone
  // accumulation across the in-place-purge vs two-table-growth boundary.
  // The map must agree with the reference map throughout.
  FlatHashMap<Time, std::uint64_t> map;
  std::unordered_map<Time, std::uint64_t> reference;
  Rng rng(99);
  for (int step = 0; step < 200'000; ++step) {
    const Time key = static_cast<Time>(rng.uniform(0, 2999));
    if (rng.chance(0.5)) {
      const std::uint64_t value = rng();
      map[key] = value;
      reference[key] = value;
    } else {
      ASSERT_EQ(map.erase(key), reference.erase(key)) << "step " << step;
    }
  }
  ASSERT_EQ(map.size(), reference.size());
  map.drain_rehash(0);
  std::size_t seen = 0;
  map.for_each([&](Time k, const std::uint64_t& v) {
    ++seen;
    const auto it = reference.find(k);
    ASSERT_NE(it, reference.end());
    ASSERT_EQ(v, it->second);
  });
  ASSERT_EQ(seen, reference.size());
}

TEST(FlatHashMapRehash, RandomizedLargeMatchesReference) {
  // Content equality with std::unordered_map over an operation sequence
  // large enough to run several two-table migrations.
  FlatHashMap<Time, std::uint64_t> map;
  std::unordered_map<Time, std::uint64_t> reference;
  Rng rng(4242);
  bool saw_migration = false;
  for (int step = 0; step < 100'000; ++step) {
    const Time key = static_cast<Time>(rng.uniform(0, 49'999));
    if (rng.chance(0.7)) {
      const std::uint64_t value = rng();
      map[key] = value;
      reference[key] = value;
    } else {
      ASSERT_EQ(map.erase(key), reference.erase(key));
    }
    saw_migration |= map.rehash_in_flight();
  }
  EXPECT_TRUE(saw_migration);  // the scale above must exercise the scheme
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [k, v] : reference) {
    const std::uint64_t* found = map.find(k);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(v, *found);
  }
}

TEST(DenseHashSet, InsertionOrderedIterationIndependentOfTableLayout) {
  // The scheduler's layout-sensitive choice points (acquire_slot's scan,
  // the balance ledger's donor pick) rely on DenseHashSet iterating in an
  // order that is a pure function of the operation sequence — the index
  // map's layout and migrations must never show through. The twin is
  // reserve()d up front, so its index never grows or migrates while the
  // default set's index doubles through several two-table migrations.
  DenseHashSet<Time> growing;
  DenseHashSet<Time> reserved;
  reserved.reserve(1 << 16);
  Rng rng(7);
  std::vector<Time> live;
  for (int step = 0; step < 20'000; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const Time key = static_cast<Time>(rng.uniform(0, 4999));
      if (growing.insert(key)) live.push_back(key);
      reserved.insert(key);
    } else {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<int>(live.size()) - 1));
      EXPECT_EQ(growing.erase(live[at]), 1u);
      EXPECT_EQ(reserved.erase(live[at]), 1u);
      live[at] = live.back();
      live.pop_back();
    }
  }
  ASSERT_EQ(growing.size(), reserved.size());
  ASSERT_FALSE(growing.empty());
  EXPECT_EQ(growing.back(), reserved.back());
  std::vector<Time> order_a;
  std::vector<Time> order_b;
  growing.for_each([&](Time t) { order_a.push_back(t); });
  reserved.for_each([&](Time t) { order_b.push_back(t); });
  ASSERT_EQ(order_a, order_b);  // identical ORDER, not just content
}

TEST(DenseHashSet, SwapPopEraseKeepsMembershipExact) {
  DenseHashSet<JobId> set;
  std::unordered_set<std::uint64_t> reference;
  Rng rng(13);
  for (int step = 0; step < 10'000; ++step) {
    const std::uint64_t value = rng.uniform(0, 499);
    if (rng.chance(0.5)) {
      EXPECT_EQ(set.insert(JobId{value}), reference.insert(value).second);
    } else {
      EXPECT_EQ(set.erase(JobId{value}), reference.erase(value));
    }
    ASSERT_EQ(set.size(), reference.size());
  }
  set.for_each([&](const JobId& id) { EXPECT_TRUE(reference.contains(id.value)); });
}

TEST(FlatHashSet, BasicOperations) {
  FlatHashSet<JobId> set;
  EXPECT_TRUE(set.insert(JobId{1}));
  EXPECT_FALSE(set.insert(JobId{1}));
  EXPECT_TRUE(set.contains(JobId{1}));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.any().value, 1u);
  EXPECT_EQ(set.erase(JobId{1}), 1u);
  EXPECT_TRUE(set.empty());
}

TEST(FlatHashSet, ForEachUntilStopsEarly) {
  FlatHashSet<Time> set;
  for (Time t = 0; t < 100; ++t) set.insert(t);
  int visited = 0;
  const bool stopped = set.for_each_until([&](Time) { return ++visited == 5; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(visited, 5);
}

TEST(FlatHashSet, RandomizedAgainstStdUnorderedSet) {
  FlatHashSet<Time> set;
  std::unordered_set<Time> reference;
  Rng rng(11);
  for (int step = 0; step < 10'000; ++step) {
    const Time key = static_cast<Time>(rng.uniform(0, 499));
    if (rng.chance(0.5)) {
      EXPECT_EQ(set.insert(key), reference.insert(key).second);
    } else {
      EXPECT_EQ(set.erase(key), reference.erase(key));
    }
  }
  EXPECT_EQ(set.size(), reference.size());
  std::set<Time> seen;
  set.for_each([&](Time t) { seen.insert(t); });
  EXPECT_EQ(seen.size(), reference.size());
  for (const Time t : seen) EXPECT_TRUE(reference.contains(t));
}

// ---- serialization round-trips (durability tier, DESIGN.md §9) ----

void write_time_int(durability::ByteSink& sink, const Time& key, const int& value) {
  sink.i64(key);
  sink.u64(static_cast<std::uint64_t>(value));
}
void read_time_int(durability::ByteSource& source, Time& key, int& value) {
  key = source.i64();
  value = static_cast<int>(source.u64());
}

std::map<Time, int> contents(const FlatHashMap<Time, int>& map) {
  std::map<Time, int> out;
  map.for_each([&](Time key, const int& value) { out.emplace(key, value); });
  return out;
}

TEST(FlatHashMapSerialize, EntriesLoadIntoAFreshTable) {
  // The image is the entry count and the entries, not the table: a map
  // saved mid-migration with tombstones loads as one table of its own
  // layout, with the same contents, and both keep agreeing.
  FlatHashMap<Time, int> map;
  for (Time t = 0; t < 3'000; ++t) map[t * 8] = static_cast<int>(t);
  for (Time t = 0; t < 3'000; t += 3) map.erase(t * 8);
  // Tombstones count toward the load: the next inserts start a
  // same-capacity purge.
  for (Time t = 3'000; !map.rehash_in_flight(); ++t) map[t * 8] = static_cast<int>(t);

  durability::ByteSink sink;
  map.serialize(sink, write_time_int);
  EXPECT_EQ(sink.size(), 8 + 16 * map.size());
  durability::ByteSource source(sink.bytes().data(), sink.size());
  FlatHashMap<Time, int> copy;
  copy.deserialize(source, read_time_int);
  EXPECT_TRUE(source.exhausted());
  EXPECT_FALSE(copy.rehash_in_flight());
  EXPECT_EQ(contents(copy), contents(map));

  Rng rng(7);
  for (int step = 0; step < 4'000; ++step) {
    const Time key = static_cast<Time>(rng.uniform(0, 7'999)) * 8;
    if (rng.chance(0.6)) {
      map[key] = step;
      copy[key] = step;
    } else {
      EXPECT_EQ(map.erase(key), copy.erase(key));
    }
  }
  EXPECT_EQ(contents(copy), contents(map));
}

TEST(DenseHashSetSerialize, RoundTripPreservesIterationOrder) {
  // The dense vector's order is behavior (acquire_slot picks, ledger donor
  // picks); swap-pop erases reshuffle it, and the round-trip must keep the
  // reshuffled order exactly.
  DenseHashSet<Time> set;
  for (Time t = 0; t < 200; ++t) set.insert(t * 16);
  for (Time t = 0; t < 200; t += 7) set.erase(t * 16);  // swap-pop reshuffle

  durability::ByteSink sink;
  set.serialize(sink, [](durability::ByteSink& s, const Time& t) { s.i64(t); });
  durability::ByteSource source(sink.bytes().data(), sink.size());
  DenseHashSet<Time> copy;
  copy.deserialize(source, [](durability::ByteSource& s, Time& t) { t = s.i64(); });

  std::vector<Time> a, b;
  set.for_each([&](Time t) { a.push_back(t); });
  copy.for_each([&](Time t) { b.push_back(t); });
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(set.back(), copy.back());

  // Continued mutation agrees too (the rebuilt index maps keys correctly).
  set.erase(a.front());
  copy.erase(a.front());
  set.insert(99'999);
  copy.insert(99'999);
  a.clear();
  b.clear();
  set.for_each([&](Time t) { a.push_back(t); });
  copy.for_each([&](Time t) { b.push_back(t); });
  EXPECT_EQ(a, b);
}

TEST(FlatHashMapSerialize, CountBeyondTheInputOrARepeatedKeyIsRejected) {
  FlatHashMap<Time, int> map;
  for (Time t = 0; t < 32; ++t) map[t] = 1;
  durability::ByteSink sink;
  map.serialize(sink, write_time_int);
  const auto loads = [](std::vector<std::byte> bytes) {
    durability::ByteSource source(bytes.data(), bytes.size());
    FlatHashMap<Time, int> copy;
    copy.deserialize(source, read_time_int);
  };
  // The leading u64 is the entry count; each entry is key i64 | value u64.
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{sink.size()}}) {
    std::vector<std::byte> bytes(sink.bytes().begin(), sink.bytes().end());
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::byte>(count >> (8 * i));
    EXPECT_THROW(loads(bytes), durability::CorruptInput) << "count " << count;
  }
  std::vector<std::byte> twice(sink.bytes().begin(), sink.bytes().end());
  std::copy_n(twice.begin() + 8, 8, twice.begin() + 24);  // entry 1 takes entry 0's key
  EXPECT_THROW(loads(twice), durability::CorruptInput);
}

}  // namespace
}  // namespace reasched
