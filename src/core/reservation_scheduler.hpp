// Single-machine pecking-order scheduling with reservations (paper §4,
// Figure 1) — the paper's main algorithmic contribution.
//
// Overview of the implementation strategy (see DESIGN.md §3 for the full
// rationale):
//
//  * Levels. A job with (aligned) window span in (L_ℓ, L_{ℓ+1}] is a
//    level-ℓ job. Level-ℓ windows are partitioned into aligned *intervals*
//    of L_ℓ slots. Level 0 (spans ≤ L₁ = 32) is the recursion base and uses
//    plain pecking order — a constant amount of work.
//
//  * Reservations are counted, not stored. Invariant 5 makes the number of
//    reservations a window W with x jobs holds in each of its 2^k intervals
//    a closed-form function r(W,I) = ⌊2x/2^k⌋ + 1 + [idx(I) < 2x mod 2^k].
//    Which reservations an interval *fulfills* is the shortest-window-first
//    greedy over these counts (Observation 7: history independent), so the
//    fulfillment table is a pure function of the ledgers and never needs to
//    be stored durably. Windows with zero jobs still contribute their
//    baseline one reservation per interval ("virtual windows") exactly as
//    the paper requires — they consume fulfillment priority but hold no
//    slots.
//
//  * Fulfillment is incrementally cached (DESIGN.md §4). Each materialized
//    interval keeps its last-computed table, recomputed in place (no
//    allocation) only when an input changed. Observation 7 guarantees the
//    table is exact until one of its two inputs changes, and both mutate in
//    O(1) known places: the interval's lower-level occupancy (invalidated
//    point-wise when a lower flag flips) and same-level window job counts —
//    which, by Invariant 5's closed form, change r(W,·) in *exactly* the
//    two round-robin intervals p1, p2 that insert/erase already reconcile,
//    so only those two are invalidated. Together with per-class assignment
//    counts this makes reconcile O(span classes) when nothing needs
//    releasing, instead of the seed's cold recompute plus two O(interval)
//    slot scans on every touch. verify_fulfillment_cache() and the audit
//    hold the cache to a cold recomputation.
//
//  * Interval state is arena-backed (DESIGN.md §6). All per-interval arrays
//    — the slot table, the cached fulfillment rows, the per-class
//    assignment counters — live in ONE block carved from a per-level
//    BlockArena (util/arena.hpp), so materializing an interval is a single
//    O(1) zeroed carve and tearing a level down is O(1) (arena reset or
//    wholesale release). An Interval itself is a trivially-copyable view:
//    pointers into its level's arena plus scalar counters. A slot cell is
//    one byte and a fulfillment row eight: neither stores a window key,
//    because the span class alone names the one aligned window of that
//    class containing the interval (LevelState::window_of_class).
//
//  * Concrete slot assignment is lazy. A window's *assigned* slots (the
//    slots backing its fulfilled reservations) are materialized on demand,
//    maintaining a(W,I) <= f(W,I). The slot cell is the one record of an
//    assignment; the window keeps only its free subset. Claims always
//    succeed under that invariant (free allowance >= Σf - Σa). Releases —
//    the "waitlist a fulfilled reservation" arrow in Figure 1 — happen
//    whenever a recomputation finds a(W,I) > f(W,I), and may force a MOVE
//    of a job sitting on a released slot. Per-interval assignment counts
//    are kept per span class, so detecting over-assignment needs no slot
//    scan.
//
//  * MOVE is a pure swap. When job j moves from slot s to its window's
//    fulfilled empty slot s', both slots lie in the same ancestor interval
//    at every higher level (aligned nesting), so all higher-level
//    bookkeeping for s and s' is swapped wholesale; a higher-level job on
//    s' is rehoused to s. This is exactly the Figure-1 MOVE including its
//    "schedule h in s instead of s'" comment, and causes no further
//    cascading.
//
//  * PLACE may displace one higher-level job h; the slot is withdrawn from
//    every higher-level allowance (lines 17-21), each of which reconciles
//    (possibly waitlisting the marginal window's reservation → one MOVE per
//    level), and h re-places at its own level. Displacements strictly
//    increase span, so the cascade has O(log* Δ) steps.
//
//  * Trimming (§4 "Trimming Windows to n"): n* doubles/halves with the
//    active-job count; windows wider than 2γn* are trimmed to an aligned
//    sub-window of span 2γn*. On every n* change the schedule is rebuilt
//    by the partitioned rebuild below (amortized O(1) reallocations per
//    request).
//
//  * Partitioned n*-rebuild (DESIGN.md §6). Reinserting the whole active
//    set inside one request is a Θ(n) latency cliff (bench E14). Instead,
//    the boundary request only snapshots the active set (sorted by JobId)
//    and flips n* ; a *shadow generation* — a second ReservationScheduler — is then
//    built incrementally, `rebuild_batch` reinsertions per request, while
//    the old generation keeps serving. Requests arriving mid-migration are
//    served by the old generation (placements stay valid: trimming only
//    tightens/loosens within the original window) and queued; once the
//    snapshot is reinserted the queue is replayed into the shadow in
//    arrival order. When the shadow has caught up the two generations swap
//    in O(1) (container swap; the request reports the honest moved-job
//    count), and the old generation is *retired*: its interval arenas and
//    ledgers are trimmed one level per subsequent request ("deferred
//    trimming"), so teardown never lands on one request either. The final
//    state does not depend on the pace: every pace executes exactly
//    ⟨reinsert snapshot in JobId order, then replay the interim requests in
//    arrival order⟩ against fresh state, which the differential suite
//    asserts against rebuild_batch = SIZE_MAX
//    (tests/partitioned_rebuild_test.cpp). A set of at most rebuild_batch
//    jobs is flushed inside the boundary request (an O(batch) spike).
//
// Containers: every hot lookup runs on open-addressing flat tables
// (util/flat_hash.hpp) and slot occupancy lives in an OccupancyIndex
// (point lookups O(~1), range scans gap-skipping via SlotRuns) — see
// DESIGN.md §4 for the container-by-container rationale.
//
// Cost accounting: every physical move of a pre-existing job is one
// reallocation (the request's own insert placement / delete removal is
// free, matching §2's cost model).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit_engine.hpp"
#include "audit/invariant_check.hpp"
#include "core/scheduler_options.hpp"
#include "core/trimming.hpp"
#include "core/window_key.hpp"
#include "schedule/occupancy_index.hpp"
#include "schedule/scheduler_interface.hpp"
#include "util/arena.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

namespace durability {
struct SchedulerPersist;
}  // namespace durability

class ReservationScheduler final : public IReallocScheduler {
 public:
  explicit ReservationScheduler(SchedulerOptions options = {});
  ~ReservationScheduler() override;

  /// Serves ⟨INSERTJOB, id, window⟩ (Figure 1 lines 1–21).
  ///
  /// \param id      Fresh job id (inserting an active id throws).
  /// \param window  Aligned window (power-of-two span, aligned start); §4
  ///                operates post-alignment — the multi-machine pipeline in
  ///                ReallocatingScheduler aligns unrestricted windows first.
  /// \returns Per-request stats: reallocations (physical moves of
  ///          pre-existing jobs), levels touched, whether an n*-rebuild was
  ///          started/completed on this request (`rebuilt`), degradations.
  /// \throws InfeasibleError under OverflowPolicy::kThrow when the request
  ///         cannot be scheduled; state is rolled back to "request never
  ///         happened" (minus possible recovery re-placements).
  RequestStats insert(JobId id, Window window) override;

  /// Serves ⟨DELETEJOB, id⟩. `id` must be active.
  RequestStats erase(JobId id) override;

  /// insert()'s window preconditions: non-empty, aligned, and a span
  /// within the level table's limit.
  void check_window(Window window) const override;

  /// Materializes the current feasible assignment. Always complete and
  /// collision-free — including mid-migration, when it reflects the (still
  /// fully valid) old generation.
  [[nodiscard]] Schedule snapshot() const override;
  [[nodiscard]] std::size_t active_jobs() const override { return jobs_.size(); }
  /// O(1): whether `id` is currently active (insert accepted, not erased).
  [[nodiscard]] bool contains(JobId id) const noexcept { return jobs_.contains(id); }
  [[nodiscard]] unsigned machines() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "reservation-pecking-order"; }

  // ---- introspection (tests, benches, EXPERIMENTS.md) ----

  /// Fulfillment table of one interval: the per-window reservation and
  /// fulfilled counts the greedy derives. Used by the Observation-7
  /// history-independence tests.
  struct FulfillmentEntry {
    WindowKey window;
    bool active = false;
    std::uint32_t reservations = 0;
    std::uint32_t fulfilled = 0;
  };
  [[nodiscard]] std::vector<FulfillmentEntry> fulfillment_of_interval(
      unsigned level, Time interval_base) const;

  /// Current n* estimate (§4 "Trimming Windows to n"). During a partitioned
  /// migration this is already the *target* value the generation flip is
  /// building toward — trimming of new inserts and the doubling/halving
  /// triggers both use it.
  [[nodiscard]] std::uint64_t n_star() const noexcept { return n_star_; }
  /// Jobs currently placed outside the reservation system (degraded mode).
  [[nodiscard]] std::uint64_t parked_jobs() const noexcept { return parked_count_; }
  [[nodiscard]] const SchedulerOptions& options() const noexcept { return options_; }

  /// True while a partitioned n*-rebuild migration is in flight (the old
  /// generation is serving; the shadow is catching up).
  [[nodiscard]] bool rebuild_in_flight() const noexcept { return migration_ != nullptr; }
  /// True while a retired (pre-swap) generation still awaits its deferred
  /// level-by-level trimming.
  [[nodiscard]] bool retired_pending() const noexcept { return !retiring_.empty(); }

  /// Per-level interval-arena counters (tests; ARCHITECTURE.md's memory
  /// layout section quotes these).
  struct ArenaStats {
    std::size_t block_bytes = 0;
    std::size_t blocks_carved = 0;
    std::size_t blocks_reused = 0;
    std::size_t chunks = 0;
    std::size_t bytes_reserved = 0;
  };
  [[nodiscard]] ArenaStats arena_stats(unsigned level) const;

  /// Full internal-invariant audit; throws InternalError on any violation.
  /// O(total state); runs automatically at the cadence of an audit_policy
  /// in mode kFull. Mid-migration it audits both generations plus the
  /// migration bookkeeping itself. Equivalent to running every check
  /// registered by register_invariants — the five named units below ARE
  /// this sweep, decomposed.
  void audit() const;

  /// Registers the five named full-sweep invariant checks (ARCHITECTURE.md
  /// glossary I1–I5: "rs.I1.jobs-and-occupancy",
  /// "rs.I2.window-ledgers", "rs.I3.interval-assignment-bound",
  /// "rs.I4.fulfillment-cache", "rs.I5.migration-coherence") bound to this
  /// instance, so each is individually invokable by name.
  void register_invariants(audit::InvariantTable& table) const;

  /// Re-applies an audit policy at runtime (benches enable the engine after
  /// an audit-free warmup). Attaching an engine escalates: its first audit
  /// is one full sweep that seeds the dirty-tracking shadows.
  void set_audit_policy(const audit::AuditPolicy& policy);

  /// Incremental audit: verifies the dirty regions the engine accumulated
  /// (capped by AuditPolicy::budget) plus the O(1) global counters; throws
  /// InternalError on any violation. Falls back to the full sweep when no
  /// engine is attached or after a wholesale state change (emergency
  /// rebuild, fresh attach). Runs automatically per request at the policy
  /// cadence; callable directly (tests, benches, SimOptions::audit_hook).
  void incremental_audit();

  /// Observable audit work since construction (full sweeps + engine
  /// counters, including an in-flight migration shadow's). The benches'
  /// audit-off smoke asserts every field stays zero when the runtime audit
  /// gate is off.
  struct AuditWork {
    std::uint64_t full_sweeps = 0;
    std::uint64_t incremental_audits = 0;
    std::uint64_t regions_checked = 0;
    std::uint64_t events = 0;

    [[nodiscard]] bool zero() const noexcept {
      return full_sweeps == 0 && incremental_audits == 0 && regions_checked == 0 &&
             events == 0;
    }
  };
  [[nodiscard]] AuditWork audit_work() const;

  /// Dirty regions the engine has accumulated but not yet verified
  /// (budgeted-slice backlog; includes an in-flight migration shadow's).
  /// 0 when no engine is attached.
  [[nodiscard]] std::size_t audit_backlog() const;

  /// Deliberate state corruptions for the corrupted-state-detection tests
  /// (tests/failure_injection_test.cpp, bench_e15 differential mode). Each
  /// mutates internal state the way a buggy mutation path would — including
  /// emitting the dirty event for the touched region — so both the full
  /// sweep and the incremental engine must flag it. Returns false when the
  /// current state offers no suitable target (e.g. no materialized
  /// interval yet). Test hook; never called by the scheduler itself.
  enum class Corruption : std::uint8_t {
    kFlipLowerOccupied,  ///< flip a lower_occupied bit in a slot table
    kDesyncLowerCount,   ///< bump an interval's lower_count
    kOrphanLedgerSlot,   ///< window free-set slot the cells do not back
    kDesyncWindowJobs,   ///< bump an ActiveWindow::jobs count
    kDesyncParkedCount,  ///< bump parked_count_
  };
  bool corrupt_for_test(Corruption kind);

  /// Cache-consistency check: recomputes every *currently valid* cached
  /// fulfillment table cold and verifies it matches the cache entry-by-entry
  /// (throws InternalError on any mismatch). Returns the number of cached
  /// tables verified, across both generations when a migration is in
  /// flight. Test hook for the stale-cache regression suite; also part of
  /// audit().
  std::size_t verify_fulfillment_cache() const;

 private:
  /// Deep logical-state serialization for snapshots (DESIGN.md §9):
  /// durability/scheduler_persist.cpp reads and rebuilds the private state
  /// below through this friend, keeping the scheduler itself free of
  /// serialization code. Precondition for saving: no migration in flight
  /// (the snapshot trigger waits for the generation flip).
  friend struct durability::SchedulerPersist;

  static constexpr Time kNoSlot = std::numeric_limits<Time>::min();

  struct JobState {
    Window original;  // aligned window as submitted
    Window window;    // after trimming (== original unless trimmed)
    unsigned level = 0;
    Time slot = kNoSlot;
    bool parked = false;  // placed outside the reservation system
  };

  /// One slot of an interval's table: one byte, and the only record of the
  /// slot's assignment. An assigned slot stores only its owner's span class
  /// (span_log - min_span_log, < 64 by the constructor's check): exactly
  /// one aligned window of each class contains the interval, so the class
  /// names the owner (LevelState::window_of_class).
  struct SlotInfo {
    std::uint8_t lower_occupied : 1 = 0;  // occupied by a job "below" this level
    std::uint8_t assigned : 1 = 0;        // concrete fulfilled reservation
    std::uint8_t cls : 6 = 0;             // owner's span class; valid iff assigned
  };

  /// One row of an interval's fulfillment table, indexed by span class
  /// like SlotInfo::cls (the row's window is implied by the same rule).
  /// Deliberately carries no activity flag or window pointer: rows must
  /// stay a pure function of the inputs the cache invalidation tracks (job
  /// counts via p1/p2, lower occupancy), and activation elsewhere changes
  /// neither value.
  struct FulRow {
    std::uint32_t reservations = 0;
    std::uint32_t fulfilled = 0;
    friend bool operator==(const FulRow&, const FulRow&) = default;
  };

  /// Freshness of an interval's cached fulfillment table.
  ///   kInvalid        — full recomputation off the ledgers required.
  ///   kFulfilledStale — reservations are exact (maintained in place by ±1
  ///                     deltas at the round-robin positions), fulfilled
  ///                     must be re-derived — a pure arithmetic cascade
  ///                     over the cached reservations, no hash lookups.
  ///   kValid          — both reservations and fulfilled columns are exact.
  enum class FulState : std::uint8_t { kInvalid, kFulfilledStale, kValid };

  /// Per-interval state: a trivially-copyable *view* into one arena block
  /// of the owning level (util/arena.hpp). Layout of the block, in order:
  ///
  ///   [ SlotInfo × interval_size | FulRow × class_count | u32 × class_count ]
  ///     ^slots (1 B each)          ^ful_cache (8 B each)  ^assigned_by_class
  ///
  /// At the paper's constants that is 32 + 3·8 + 3·4 = 68 B (80 B carved)
  /// at L₁ and 256 + 54·8 + 54·4 = 904 B (912 B carved) at L₂.
  ///
  /// The arrays never move (arena chunks are stable), so Interval values
  /// may be copied/moved freely by the enclosing flat map; the memory is
  /// reclaimed only wholesale — arena reset (emergency EDF reschedule) or
  /// retire-and-trim (n*-rebuild).
  struct Interval {
    Time base = 0;
    /// interval_size cells; zeroed at carve.
    SlotInfo* slots = nullptr;
    /// class_count rows; the cache proper. Exactness contract: the
    /// reservations column is exact for every row whenever ful_state !=
    /// kInvalid; the fulfilled column is exact only for rows below
    /// ful_bound when ful_state == kValid. Hot-path readers only consult
    /// rows of active/assigned classes, which always lie below the level's
    /// active bound (Observation 7 makes all of it a pure function of the
    /// tracked inputs). Written through a const Interval (cache refresh),
    /// which is well-formed for a pointee.
    FulRow* ful_cache = nullptr;
    /// Assigned cells per span class — the a(W,I) side of the lazy
    /// invariant, maintained incrementally so reconcile needs no slot scan
    /// to detect over-assignment. class_count counters.
    std::uint32_t* assigned_by_class = nullptr;
    std::uint32_t lower_count = 0;
    /// Bit c set iff assigned_by_class[c] > 0 — lets reconcile visit only
    /// the classes that can possibly be over-assigned (class_count is
    /// checked <= 64 at construction).
    u64 assigned_class_mask = 0;
    mutable FulState ful_state = FulState::kInvalid;
    mutable unsigned ful_bound = 0;
  };

  /// A window's ledger. Which slots back its fulfilled reservations is not
  /// stored here: the slot cells say it (assigned, cls == class_of(w)), so
  /// each reservation has one record (assigned_to).
  struct ActiveWindow {
    std::uint64_t jobs = 0;  // x
    /// The window's assigned slots (global coordinates) with no job of this
    /// level on them — the slots Invariant 6 / Lemma 8 hand out. (They may
    /// hold a higher-level job, which placement will displace.) A dense
    /// set: iteration is insertion-ordered and layout-independent, so the
    /// acquire_slot fast-path pick never depends on table layout
    /// (util/flat_hash.hpp, DenseHashSet).
    DenseHashSet<Time> free_assigned;
    std::uint64_t claim_cursor = 0;  // round-robin claim-scan position
  };

  struct LevelState {
    u64 interval_size = 0;
    unsigned interval_log = 0;
    u64 max_span = 0;
    unsigned min_span_log = 0;  // smallest span exponent at this level
    unsigned max_span_log = 0;
    FlatHashMap<Time, Interval> intervals;  // key: interval base
    FlatHashMap<WindowKey, ActiveWindow> windows;
    /// Backing store for every Interval of this level (one block each).
    /// Owned by this level of this scheduler instance — in the sharded
    /// service layer that makes arenas shard-local by construction.
    BlockArena arena;
    /// Active-window count per span class; supports the two hot-path
    /// shortcuts below.
    std::vector<std::uint32_t> active_per_class;
    /// One past the highest class with an active window. Fulfillment
    /// cascades stop here: every class the hot path consults is active (or
    /// holds assignments, a subset), and the level table's nominal class
    /// range is enormous (the top threshold is ~2^62) while the populated
    /// prefix is tiny.
    unsigned active_bound = 0;

    [[nodiscard]] unsigned class_count() const noexcept {
      return max_span_log - min_span_log + 1;
    }
    [[nodiscard]] unsigned class_of(const WindowKey& w) const noexcept {
      return w.span_log - min_span_log;
    }
    /// The one aligned window of class `cls` that contains the interval at
    /// `interval_base`: the owner of that interval's class-`cls` slots and
    /// the window of its class-`cls` fulfillment row.
    [[nodiscard]] WindowKey window_of_class(Time interval_base, unsigned cls) const {
      WindowKey key;
      key.span_log = static_cast<std::uint8_t>(min_span_log + cls);
      key.start = align_down(interval_base, key.span());
      return key;
    }
  };

  /// A request that arrived while a migration was in flight: served by the
  /// old generation immediately, replayed into the shadow later.
  struct QueuedRequest {
    bool is_insert = false;
    JobId id{};
    Window window{};  // inserts only
  };

  /// In-flight partitioned n*-rebuild (DESIGN.md §6).
  struct Migration {
    std::vector<std::pair<JobId, Window>> reinsert;  // boundary snapshot, id-ascending
    std::size_t reinsert_next = 0;
    std::vector<QueuedRequest> replay;  // arrival order
    std::size_t replay_next = 0;
    std::unique_ptr<ReservationScheduler> shadow;  // the new generation
  };

  // -- geometry helpers --
  [[nodiscard]] unsigned top_level() const noexcept {
    return static_cast<unsigned>(levels_.size()) - 1;
  }
  [[nodiscard]] Time interval_base_of(unsigned level, Time slot) const;
  [[nodiscard]] Time nth_interval_base(const WindowKey& w, unsigned level, u64 index) const;
  /// Levels >= `from_level` at which `job` makes its slot unavailable
  /// ("lower occupied"): parked jobs block their own level as well.
  [[nodiscard]] unsigned block_floor(const JobState& job) const noexcept;

  // -- interval state --
  /// Carves one zeroed arena block and wires the interval's three array
  /// pointers into it (the block layout documented on Interval). Shared by
  /// get_or_create_interval and the snapshot loader, so the layout
  /// knowledge lives in exactly one place.
  static void carve_interval_block(LevelState& ls, Interval& interval);
  Interval& get_or_create_interval(unsigned level, Time base);
  [[nodiscard]] Interval* find_interval(unsigned level, Time base);
  /// Whether `slot` backs one of `w`'s fulfilled reservations: it lies in
  /// w, and its cell in the level's interval is assigned to w's span class.
  [[nodiscard]] bool assigned_to(unsigned level, const WindowKey& w, Time slot) const;
  /// Recomputation straight off the ledgers into `out`, reusing its
  /// capacity (seed behavior when cold; also the reference the cache is
  /// validated against).
  void compute_fulfillment_into(unsigned level, const Interval& interval,
                                std::vector<FulRow>& out) const;
  [[nodiscard]] std::vector<FulRow> compute_fulfillment(unsigned level,
                                                        const Interval& interval) const;
  /// Cache-aware access: returns the interval's cached table (class_count
  /// rows), refreshing in place (no allocation, and no hash lookups unless
  /// kInvalid) when stale.
  const FulRow* fulfillment(unsigned level, const Interval& interval) const;
  /// Lower-occupancy changed: reservations stay exact, fulfilled must be
  /// re-cascaded. Called on every lower-flag flip of the interval.
  static void soften_fulfillment(const Interval& interval) noexcept {
    if (interval.ful_state == FulState::kValid) {
      interval.ful_state = FulState::kFulfilledStale;
    }
  }
  /// Applies the ±1 reservation delta of a job-count change on `w` to the
  /// cached table of the round-robin interval at `base` (Invariant 5:
  /// r(W,·) changes in exactly the two positions insert/erase touch, so
  /// these point updates keep every other cache exact). No-op if the
  /// interval is not materialized or its cache is invalid anyway.
  void adjust_cached_reservation(unsigned level, const WindowKey& w, Time base,
                                 std::int32_t delta);
  /// Active-window census maintenance (activation/deactivation only).
  void note_window_activated(unsigned level, unsigned cls);
  void note_window_deactivated(unsigned level, unsigned cls);

  // -- reservation machinery --
  /// Refreshes the interval's fulfillment table (cache-aware) and releases
  /// over-assigned slots (the "waitlist a fulfilled reservation" step); jobs
  /// sitting on released slots are MOVEd. O(span classes) when nothing needs
  /// releasing.
  void reconcile(unsigned level, Time interval_base, std::vector<JobId>& pending);
  void reconcile_interval(unsigned level, Interval& interval, std::vector<JobId>& pending);
  /// Releases `to_release` of the concrete slots of class `cls` in the
  /// interval (silent slots first); jobs on released slots join `to_move`.
  void release_over_assignment(unsigned level, Interval& interval, unsigned cls,
                               std::uint32_t to_release, std::vector<JobId>& to_move);
  void unassign_slot(unsigned level, Interval& interval, Time slot);
  void assign_slot(unsigned level, Interval& interval, Time slot, const WindowKey& w);
  /// Finds (claiming lazily if needed) a fulfilled slot of `w` with no
  /// level-ℓ job on it, excluding `avoid`. Returns kNoSlot on overflow.
  [[nodiscard]] Time acquire_slot(const WindowKey& w, unsigned level, Time avoid);

  // -- job motion --
  /// PLACE via the reservation system. On overflow: throws (request job,
  /// kThrow) or parks. `counts` marks whether landing counts as a
  /// reallocation (true for every job except the one being inserted).
  void place_reserved(JobId id, std::vector<JobId>& pending, bool is_request_job,
                      bool counts);
  /// Base-case / fallback placement: first empty slot in the window, else
  /// displace a strictly-longer occupant (naive pecking order). `park`
  /// marks the job as placed outside the reservation system.
  void place_unreserved(JobId id, bool park, std::vector<JobId>& pending, bool counts);
  /// Figure-1 MOVE: precondition — the job's slot has just lost its
  /// reservation (unassigned). Swap trick, no recursion.
  void move_job(JobId id, std::vector<JobId>& pending);
  /// Physically sets the job on the slot and updates all higher-level
  /// bookkeeping; a displaced longer job (if any) joins `pending`.
  void occupy(JobId id, Time slot, bool parked_placement, std::vector<JobId>& pending,
              bool counts);
  /// Removes the job from its slot, clearing higher-level occupancy flags.
  void vacate(JobId id);
  void swap_ancestor_bookkeeping(Time s1, Time s2, unsigned above_level);

  // -- request plumbing --
  void insert_impl(JobId id, Window original);
  void erase_impl(JobId id);
  void erase_body(JobId id);
  /// Last-resort recovery when a pecking-order displacement chain dead-ends
  /// (possible only without the guaranteed slack): recompute a feasible
  /// schedule for the whole active set with EDF and adopt it as parked
  /// placements. Returns false iff even EDF cannot schedule the set (the
  /// caller then excludes the request job and rejects it). Reservation
  /// ledgers survive (job counts), concrete assignments reset.
  bool emergency_reschedule(const JobId* exclude);
  /// Handles a mid-request dead end for request `id`: settle interrupted
  /// work, recover everything (best effort), or reject the request
  /// (erase + throw InfeasibleError). `pending` is the interrupted cascade.
  void recover_or_reject(JobId id, bool reject_outright, std::vector<JobId>& pending);
  void maybe_rebuild_on_insert();
  void maybe_rebuild_on_erase();
  /// n* changed: starts a partitioned migration, and flushes it inside
  /// this request when one request's migration budget (rebuild_batch)
  /// covers the whole active set.
  void rebuild(u64 new_n_star);
  /// The active set as (id, original window), ascending JobId — the
  /// reinsertion order. Pace-independence of the rebuild rests on it.
  [[nodiscard]] std::vector<std::pair<JobId, Window>> sorted_active_set() const;
  void begin_partitioned_rebuild(u64 new_n_star);
  /// Advances an in-flight migration by up to `budget` work units (one
  /// unit = one snapshot reinsertion or one queued-request replay); swaps
  /// generations when the shadow has fully caught up.
  void step_migration(std::size_t budget);
  /// The O(1) generation flip + honest moved-job accounting; retires the
  /// old generation for deferred trimming.
  void complete_migration();
  /// Runs the in-flight migration to completion (sets within one request's
  /// budget, and re-triggers while a migration is in flight).
  void flush_migration();
  /// Frees one level of the retired generation (arena chunks + ledgers) —
  /// the "deferred trimming" step, one level per request.
  void trim_retired_step();
  /// Re-places displaced jobs until the cascade settles.
  void drain(std::vector<JobId>& pending);

  void count_move(const JobState& job) noexcept;

  // -- incremental audit (src/audit/; DESIGN.md §7) --
  /// Runs whatever audit the audit policy makes due after a request.
  void maybe_audit();
  /// Creates/destroys the engine to match options_.audit_policy.
  void sync_audit_engine();
  /// Rebuilds the engine's shadow counters from the (just fully audited)
  /// ledgers; clears dirtiness and the full-sweep escalation.
  void reseed_audit_engine();
  // Scoped verification units the engine drain calls (each is the
  // corresponding full-sweep section restricted to one region):
  void audit_job_scoped(JobId id) const;
  void audit_window_scoped(unsigned level, const WindowKey& w) const;
  void audit_interval_scoped(unsigned level, Time base) const;
  void audit_globals_scoped() const;
  /// Per-interval body of full-sweep §3: ground-truth slot scan, counter
  /// agreement, each assigned cell in its owner's free set iff no job of
  /// the level sits on it, a ≤ f against a cold recomputation.
  void audit_interval_body(unsigned level, Time base, const Interval& interval) const;
  /// Per-interval body of full-sweep §4: the cached fulfillment table vs a
  /// cold recomputation. Returns 1 when a (non-invalid) cache was verified.
  std::size_t verify_interval_cache(unsigned level, Time base,
                                    const Interval& interval) const;
  /// Per-job body of full-sweep §1 (placement, occupancy and run-index
  /// agreement, own-level ledger membership). Returns true iff parked.
  bool audit_job_body(const JobId& id, const JobState& job) const;
  /// Per-window local body shared by full-sweep §2 and the scoped check:
  /// every free slot lies in the window, is backed by one of its assigned
  /// cells (anti-orphan) and holds no job of the level.
  void audit_window_body(unsigned level, const WindowKey& key,
                         const ActiveWindow& window) const;
  /// audit() minus the full_sweeps_ count: how the snapshot loader checks.
  void check_invariants() const;
  // Full-sweep sections as named invariant-check units (I1–I5):
  void check_jobs_and_occupancy() const;
  void check_window_ledgers() const;
  void check_interval_assignment_bound() const;
  void check_migration_coherence() const;
  // Event emission helpers: exactly one branch when no engine is attached.
  // Const (the engine sits behind a pointer): the lazy fulfillment-cache
  // refresh — a cache write on the const read path — must emit too.
  void mark_interval_dirty(unsigned level, Time base) const {
    if (audit_engine_) audit_engine_->on_interval(level, base);
  }
  void mark_window_dirty(unsigned level, const WindowKey& w) const {
    if (audit_engine_) audit_engine_->on_window(level, w);
  }
  void mark_job_dirty(JobId id) const {
    if (audit_engine_) audit_engine_->on_job(id);
  }
  void note_parked_delta(std::int64_t delta) const {
    if (audit_engine_) audit_engine_->on_parked(delta);
  }

  SchedulerOptions options_;
  std::vector<LevelState> levels_;
  FlatHashMap<JobId, JobState> jobs_;
  OccupancyIndex occ_;  // slot -> job, layered on SlotRuns for range scans
  u64 n_star_ = trimming::kMinNStar;
  u64 parked_count_ = 0;
  RequestStats current_{};
  std::uint32_t touched_levels_mask_ = 0;
  std::unique_ptr<Migration> migration_;  // in-flight partitioned rebuild
  /// Dirty-tracking engine; attached iff audit_policy.mode == kIncremental.
  std::unique_ptr<audit::AuditEngine> audit_engine_;
  std::uint64_t audit_request_index_ = 0;  // cadence counter
  mutable std::uint64_t full_sweeps_ = 0;  // audit() invocations (audit_work)
  /// Old generations after a swap, awaiting deferred level-by-level trim,
  /// drained FIFO one step per request. A list, not a single slot: when
  /// migrations complete within a few requests of each other (tiny n*,
  /// custom towers), the older generation must keep draining rather than
  /// be freed wholesale inside one request. Length stays O(1): a new entry
  /// arrives at most once per completed migration, and each migration
  /// spans at least (active set / rebuild_batch) requests of draining.
  std::vector<std::unique_ptr<ReservationScheduler>> retiring_;
};

}  // namespace reasched
