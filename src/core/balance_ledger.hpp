// Round-robin balance ledger for the multi-machine → single-machine
// reduction (paper §3), held by the service layer's ShardedScheduler
// (src/service/), the one implementation of that reduction.
//
// For every window W the ledger tracks n_W, the number of active jobs with
// exactly window W, and which machines hold them, keeping every machine's
// share within {⌊n_W/m⌋, ⌈n_W/m⌉} with extras on the earliest machines:
//   * insert: delegate to machine (n_W mod m) — round robin;
//   * delete from machine d: the latest-extra machine ((n_W - 1) mod m)
//     donates one W-job to d, a single migration (none if d is the donor).
//
// The API is split into *plan* (const decision) and *commit* (ledger
// mutation) so callers can order machine-level operations around the ledger
// exactly as the paper's sequential reduction does, and so the batched
// service layer can commit a whole batch of decisions up front and apply
// the machine operations in parallel afterwards. Every commit has a
// matching rollback, used by the service layer to unwind an optimistically
// committed batch when a machine rejects one of its inserts.
//
// Determinism: all decisions are pure functions of the per-window
// operation history. The donor pick is the pool's most recently added job
// (DenseHashSet::back(), O(1)) — the pools are insertion-ordered dense
// sets, so the pick depends only on the per-window set's own insert/erase
// sequence and NEVER on hash layout or migration state. Two ledgers fed
// the same per-window sequences make identical choices — the property the
// sharded scheduler's byte-identical guarantee and the golden digests
// (tests/golden_digest_test.cpp) rest on.
#pragma once

#include <cstdint>
#include <vector>

#include "audit/dirty_set.hpp"
#include "audit/invariant_check.hpp"
#include "base/types.hpp"
#include "base/window.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

/// Directory entry for one active job: its window and the machine the §3
/// reduction delegated it to.
struct JobInfo {
  Window window;
  MachineId machine = 0;
};

class BalanceLedger {
 public:
  /// `machines` is the total machine count m of the reduction.
  explicit BalanceLedger(unsigned machines = 1) : machines_(machines) {}

  /// The §3 rebalance migration triggered by an erase, if any.
  struct Migration {
    bool needed = false;
    JobId moved{};       ///< the donor's W-job that must move
    MachineId donor = 0; ///< latest-extra machine, (n_W - 1) mod m
  };

  /// Round-robin delegation target for inserting a W-job: (n_W mod m).
  [[nodiscard]] MachineId plan_insert(const Window& w) const {
    const BalanceState* balance = windows_.find(w);
    const std::uint64_t count = balance ? balance->count : 0;
    return static_cast<MachineId>(count % machines_);
  }

  /// Records a delegated insert after the machine accepted it.
  void commit_insert(JobId id, const Window& w, MachineId machine) {
    mark_dirty(w);
    BalanceState& balance = windows_[w];
    ensure_pools(balance);
    ++balance.count;
    balance.per_machine[machine].insert(id);
  }

  /// Unwinds a commit_insert (service-layer batch rollback).
  void rollback_insert(JobId id, const Window& w, MachineId machine) {
    mark_dirty(w);
    BalanceState& balance = windows_.at(w);
    RS_CHECK(balance.per_machine[machine].erase(id) == 1,
             "BalanceLedger::rollback_insert: job not on recorded machine");
    --balance.count;
    if (balance.count == 0) windows_.erase(w);
  }

  /// Erase decision for a W-job held by `machine`: whether the §3 rebalance
  /// migration fires and which job moves. Pure; call before commit_erase.
  [[nodiscard]] Migration plan_erase(const Window& w, MachineId machine) const {
    const BalanceState& balance = windows_.at(w);
    RS_CHECK(balance.count >= 1, "balance ledger underflow");
    Migration migration;
    migration.donor = static_cast<MachineId>((balance.count - 1) % machines_);
    if (migration.donor != machine && balance.count > 1) {
      const auto& pool = balance.per_machine[migration.donor];
      RS_CHECK(!pool.empty(), "rebalance: donor machine has no job of this window");
      migration.needed = true;
      // Deterministic O(1) pick (see the determinism note above): the
      // pool's most recently added job. A layout-dependent "first in
      // iteration order" pick would leak the hash layout into the
      // schedule.
      migration.moved = pool.back();
    }
    return migration;
  }

  /// Records the erase itself (not the migration — see commit_migration).
  void commit_erase(JobId id, const Window& w, MachineId machine) {
    mark_dirty(w);
    BalanceState& balance = windows_.at(w);
    RS_CHECK(balance.per_machine[machine].erase(id) == 1,
             "BalanceLedger::commit_erase: job not on recorded machine");
    --balance.count;
    if (balance.count == 0) windows_.erase(w);
  }

  /// Unwinds a commit_erase (service-layer batch rollback).
  void rollback_erase(JobId id, const Window& w, MachineId machine) {
    mark_dirty(w);
    BalanceState& balance = windows_[w];
    ensure_pools(balance);
    ++balance.count;
    balance.per_machine[machine].insert(id);
  }

  /// Records a completed rebalance migration: `moved` left the donor for
  /// `dest` (the machine the erased job vacated).
  void commit_migration(const Window& w, const Migration& migration, MachineId dest) {
    mark_dirty(w);
    BalanceState& balance = windows_.at(w);
    RS_CHECK(balance.per_machine[migration.donor].erase(migration.moved) == 1,
             "BalanceLedger::commit_migration: moved job not on donor");
    balance.per_machine[dest].insert(migration.moved);
  }

  /// Unwinds a commit_migration (service-layer batch rollback).
  void rollback_migration(const Window& w, const Migration& migration, MachineId dest) {
    mark_dirty(w);
    BalanceState& balance = windows_.at(w);
    RS_CHECK(balance.per_machine[dest].erase(migration.moved) == 1,
             "BalanceLedger::rollback_migration: moved job not on dest");
    balance.per_machine[migration.donor].insert(migration.moved);
  }

  [[nodiscard]] unsigned machines() const noexcept { return machines_; }
  [[nodiscard]] std::size_t tracked_windows() const noexcept { return windows_.size(); }

  /// Balancing invariant check (Lemma 3): every machine holds between
  /// ⌊n_W/m⌋ and ⌈n_W/m⌉ jobs of each window W, extras on the earliest
  /// machines. Throws InternalError on violation. Full sweep over every
  /// tracked window — this is the "svc.L3.balance-shares" invariant-check
  /// unit.
  void audit() const {
    windows_.for_each(
        [&](const Window& w, const BalanceState&) { audit_window(w); });
    // The sweep just verified every window, dirty ones included; a
    // following audit_incremental need not re-verify them.
    dirty_.clear();
  }

  /// The per-window body of audit(): checks W's shares only. A window
  /// absent from the ledger (deactivated since it was marked dirty) is
  /// vacuously balanced.
  void audit_window(const Window& w) const {
    const BalanceState* balance = windows_.find(w);
    if (balance == nullptr) return;
    RS_CHECK(balanced(*balance),
             "audit_balance: machine share deviates from round-robin invariant");
  }

  /// f(job, window, machine) for every delegated job.
  template <class F>
  void for_each_job(F&& f) const {
    windows_.for_each([&](const Window& w, const BalanceState& balance) {
      for (MachineId machine = 0; machine < machines_; ++machine) {
        balance.per_machine[machine].for_each(
            [&](const JobId& id) { f(id, w, machine); });
      }
    });
  }

  /// Serializes every window's per-machine pools in their dense order, the
  /// order plan_erase's pool.back() pick reads, so a reloaded ledger makes
  /// the same decisions. n_W is the pools' total and is not stored.
  template <class Sink>
  void serialize(Sink& sink) const {
    sink.u64(windows_.size());
    windows_.for_each([&](const Window& w, const BalanceState& balance) {
      sink.i64(w.start);
      sink.i64(w.end);
      for (const auto& pool : balance.per_machine) {
        pool.serialize(sink, [](Sink& out, const JobId& id) { out.u64(id.value); });
      }
    });
  }

  /// Loads serialize()'s bytes into this empty ledger. Malformed input and
  /// an empty or repeated window are rejected through source.corrupt();
  /// whether the shares keep Lemma 3 is audit()'s call.
  template <class Source>
  void deserialize(Source& source) {
    const std::uint64_t count = source.u64();
    if (count > source.remaining()) {
      source.corrupt("BalanceLedger::deserialize: window count exceeds the input");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      Window w;
      w.start = source.i64();
      w.end = source.i64();
      const auto [balance, fresh] = windows_.try_emplace(w);
      if (!fresh) source.corrupt("BalanceLedger::deserialize: duplicate window");
      ensure_pools(*balance);
      for (auto& pool : balance->per_machine) {
        pool.deserialize(source, [](Source& in, JobId& id) { id.value = in.u64(); });
        balance->count += pool.size();
      }
      if (balance->count == 0) source.corrupt("BalanceLedger::deserialize: empty window");
    }
  }

  /// Incremental audit: re-verifies only the windows whose balance state
  /// changed since the last call (commits/rollbacks mark them dirty).
  /// The first call is a full sweep — dirt accumulated only from then on —
  /// after which the cost is O(windows touched since last audit). Returns
  /// the number of windows verified. Not thread-safe; the owning front end
  /// calls it from its caller thread.
  std::size_t audit_incremental() {
    if (!track_dirty_) {
      track_dirty_ = true;
      audit();
      return tracked_windows();
    }
    return dirty_.drain(0, [&](const Window& w) { audit_window(w); });
  }

  [[nodiscard]] bool dirty_tracking() const noexcept { return track_dirty_; }
  [[nodiscard]] std::size_t dirty_windows() const noexcept { return dirty_.size(); }

  /// Registers the Lemma 3 check as "svc.L3.balance-shares".
  void register_invariants(audit::InvariantTable& table) const {
    table.add("svc.L3.balance-shares", "ShardedScheduler",
              "every machine holds floor/ceil(n_W/m) jobs of each window, "
              "extras on the earliest machines (Lemma 3)",
              [this] { audit(); });
  }

  /// Deliberate corruption for the differential audit tests: moves one job
  /// between two machines' share sets without touching the counts (marks
  /// the window dirty, as the buggy mutation path would have). Returns
  /// false when no window has a movable job (needs m >= 2 and n_W >= 1).
  bool corrupt_for_test() {
    if (machines_ < 2) return false;
    bool done = false;
    windows_.for_each([&](const Window& w, BalanceState& balance) {
      if (done || balance.count == 0) return;
      for (unsigned from = 0; from < machines_; ++from) {
        if (balance.per_machine[from].empty()) continue;
        const JobId moved = balance.per_machine[from].back();
        balance.per_machine[from].erase(moved);
        balance.per_machine[(from + 1) % machines_].insert(moved);
        mark_dirty(w);
        done = true;
        return;
      }
    });
    return done;
  }

 private:
  struct BalanceState {
    std::uint64_t count = 0;                       // n_W
    std::vector<DenseHashSet<JobId>> per_machine;  // W-jobs per machine
  };

  /// Lemma 3 for one window: machine i holds ⌊n_W/m⌋ jobs, plus one for
  /// the first n_W mod m machines.
  [[nodiscard]] bool balanced(const BalanceState& balance) const {
    for (std::uint64_t i = 0; i < machines_; ++i) {
      const std::uint64_t expected =
          balance.count / machines_ + (i < balance.count % machines_ ? 1 : 0);
      if (balance.per_machine[i].size() != expected) return false;
    }
    return true;
  }

  void mark_dirty(const Window& w) {
    if (track_dirty_) dirty_.mark(w);
  }

  /// Materializes a fresh window's per-machine pools.
  void ensure_pools(BalanceState& balance) {
    if (balance.per_machine.empty()) balance.per_machine.resize(machines_);
  }

  unsigned machines_ = 1;
  FlatHashMap<Window, BalanceState> windows_;
  /// Dirty-window queue for audit_incremental; off until the first
  /// incremental call so the sequential front end pays nothing by default.
  /// Mutable: a successful const full sweep discharges the queue.
  bool track_dirty_ = false;
  mutable audit::DirtyQueue<Window> dirty_;
};

}  // namespace reasched
