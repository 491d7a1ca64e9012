// Deep logical-state serialization of a ReservationScheduler — the payload
// of every snapshot file (DESIGN.md §9).
//
// What is saved is the scheduler's *behavior-relevant* state, once: the
// job table, every level's interval slot cells (an assigned cell writes
// its owner's span class, the one record of who owns the slot) and window
// ledgers (job count, claim cursor and the free set, whose insertion order
// feeds acquire_slot's pick), and the scalar counters (n*, parked count,
// audit cadence position). Each hash table is written as its entry count
// followed by its entries, never as table memory: capacity, tombstones and
// an in-flight rehash feed no decision, so a table is loaded by its own
// insert path (util/flat_hash.hpp).
//
// What is deliberately NOT saved, because it is derived or inert:
//   * each interval's counters (lower_count, assigned_by_class and its
//     class mask) — recounted from the cells as they load;
//   * the active-window census and active bound — counted from the window
//     keys;
//   * fulfillment caches — a pure function of the ledgers (Observation 7);
//     every interval reloads as kInvalid and recomputes on first touch;
//   * the occupancy map and its run index — the inverse of the job
//     table's slots, rebuilt from it;
//   * retired generations awaiting deferred trimming — memory bookkeeping
//     with no schedule effect;
//   * the audit engine's shadows — reseeded from the loaded state.
//
// Loading is decode, then audit. The decode checks only what it needs to
// stay memory-safe and exact: magic, version and options fingerprint (an
// image of another format or configuration); the level count and each
// table's entry count within the input (the sizes it allocates by); no key
// twice in one table and no two jobs on one slot (the maps hold one entry
// per key); slot offsets inside their interval and ascending (each cell
// written and counted once), and known flag bits; a slot class below its
// level's class count (it indexes the per-class counters); a window key
// whose span is a class of its level (class_of indexes the census by it);
// and no trailing bytes. Whether the decoded state is one the scheduler
// could have reached — I1–I5 — is the scheduler's own audit's call, as it
// is at run time: a failed audit refuses the image as CorruptInput, and
// recovery falls back. The audit then reseeds an attached engine; it is
// not counted in audit_work().
//
// Saving requires a quiescent scheduler: no partitioned-rebuild migration
// in flight. ShardedScheduler's snapshot trigger guarantees that by
// deferring a due snapshot to a boundary where no machine is migrating.
#pragma once

#include <cstdint>

#include "base/types.hpp"
#include "durability/codec.hpp"

namespace reasched {

class ReservationScheduler;
struct SchedulerOptions;

namespace durability {

struct SchedulerPersist {
  /// Serializes `s` into `sink`. Precondition: !s.rebuild_in_flight().
  static void save(const ReservationScheduler& s, ByteSink& sink);

  /// Rebuilds the serialized state into `s`, which must be freshly
  /// constructed with the same SchedulerOptions the saved instance ran
  /// under (verified via fingerprint; mismatch throws CorruptInput, as
  /// does any malformed input or a state that fails the audit).
  static void load(ReservationScheduler& s, ByteSource& source);

  /// Whether `s` holds job `id` with `window` as its submitted window: a
  /// loader's cross-check of a directory kept outside the image.
  [[nodiscard]] static bool holds(const ReservationScheduler& s, JobId id,
                                  const Window& window);

  /// Fingerprint of the options fields that shape serialized state and
  /// replay determinism. Stored in every snapshot and checked on load.
  [[nodiscard]] static std::uint64_t options_fingerprint(const SchedulerOptions& o);
};

}  // namespace durability
}  // namespace reasched
