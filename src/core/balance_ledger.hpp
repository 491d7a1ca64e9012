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
// The ledger is also the reduction's one job directory: JobId → {window,
// machine, position in that machine's pool of the window}, each pool a
// plain vector indexed by those positions.
//
// The API is split into *plan* (const decision) and *commit* (ledger
// mutation) so callers can order machine-level operations around the ledger
// exactly as the paper's sequential reduction does, and so the batched
// service layer can commit a whole batch of decisions up front and apply
// the machine operations in parallel afterwards. The commits invert each
// other (erase undoes insert and vice versa; migrating a job back undoes a
// migration), which is how the service layer unwinds a committed batch
// when a machine rejects one of its inserts.
//
// Determinism: all decisions are pure functions of the per-window
// operation history. The donor pick is the pool's most recently added job
// (pool.back(), O(1)): inserts append and erases swap the last job into
// the hole, so the pick depends only on the per-window insert/erase
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

/// Directory entry for one active job: its window, the machine the §3
/// reduction delegated it to, and its index in that machine's W-pool.
struct JobInfo {
  Window window;
  MachineId machine = 0;
  std::uint32_t pos = 0;
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

  /// The directory entry of an active job, nullptr when `id` is not active.
  /// Valid until the next commit.
  [[nodiscard]] const JobInfo* find(JobId id) const { return jobs_.find(id); }
  [[nodiscard]] bool contains(JobId id) const { return jobs_.contains(id); }
  /// Active jobs across all windows and machines.
  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_.size(); }

  /// Round-robin delegation target for inserting a W-job: (n_W mod m).
  [[nodiscard]] MachineId plan_insert(const Window& w) const {
    const BalanceState* balance = windows_.find(w);
    return static_cast<MachineId>((balance ? balance->count : 0) % machines_);
  }

  /// Records a delegated insert of an inactive id; also undoes commit_erase.
  void commit_insert(JobId id, const Window& w, MachineId machine) {
    const auto [info, fresh] = jobs_.try_emplace(id);
    RS_CHECK(fresh, "BalanceLedger::commit_insert: job already active");
    mark_dirty(w);
    BalanceState& balance = windows_[w];
    if (balance.per_machine.empty()) balance.per_machine.resize(machines_);
    ++balance.count;
    *info = JobInfo{w, machine, append(balance.per_machine[machine], id)};
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

  /// Records the erase of an active job (not the migration — see
  /// commit_migration); also undoes commit_insert.
  void commit_erase(JobId id) {
    JobInfo info;
    RS_CHECK(jobs_.take(id, info) == 1, "BalanceLedger::commit_erase: job not active");
    mark_dirty(info.window);
    BalanceState& balance = windows_.at(info.window);
    remove(balance.per_machine[info.machine], info.pos);
    if (--balance.count == 0) windows_.erase(info.window);
  }

  /// Moves an active job's delegation to `dest`: records a completed
  /// rebalance migration (`dest` is the machine the erased job vacated), and
  /// undoes one when `dest` is the donor.
  void commit_migration(JobId moved, MachineId dest) {
    JobInfo& info = jobs_.at(moved);
    mark_dirty(info.window);
    BalanceState& balance = windows_.at(info.window);
    remove(balance.per_machine[info.machine], info.pos);
    info.machine = dest;
    info.pos = append(balance.per_machine[dest], moved);
  }

  /// Balancing invariant check (Lemma 3): every machine holds between
  /// ⌊n_W/m⌋ and ⌈n_W/m⌉ jobs of each window W, extras on the earliest
  /// machines; and the directory indexes exactly the pools' jobs, each at
  /// its window, machine and position. Throws InternalError on violation.
  /// Full sweep over every tracked window and job — this is the
  /// "svc.L3.balance-shares" invariant-check unit.
  void audit() const {
    std::uint64_t pooled = 0;
    windows_.for_each([&](const Window& w, const BalanceState& balance) {
      audit_window(w);
      pooled += balance.count;
    });
    // Every directory entry points at its own pool cell, so the entries
    // are distinct cells; equal totals make them all of the cells.
    RS_CHECK(pooled == jobs_.size(), "audit_balance: directory and pools disagree");
    jobs_.for_each([&](const JobId& id, const JobInfo& info) {
      const BalanceState* balance = windows_.find(info.window);
      RS_CHECK(balance != nullptr && info.machine < machines_ &&
                   info.pos < balance->per_machine[info.machine].size() &&
                   balance->per_machine[info.machine][info.pos] == id,
               "audit_balance: directory and pools disagree");
    });
    // The sweep just verified every window, dirty ones included; a
    // following audit_incremental need not re-verify them.
    dirty_.clear();
  }

  /// f(job, window, machine) for every delegated job.
  template <class F>
  void for_each_job(F&& f) const {
    jobs_.for_each(
        [&](const JobId& id, const JobInfo& info) { f(id, info.window, info.machine); });
  }

  /// Serializes every window's per-machine pools in their order, the order
  /// plan_erase's pool.back() pick reads, so a reloaded ledger makes the
  /// same decisions. n_W is the pools' total and the directory is the
  /// pools' index; neither is stored.
  template <class Sink>
  void serialize(Sink& sink) const {
    sink.u64(windows_.size());
    windows_.for_each([&](const Window& w, const BalanceState& balance) {
      sink.i64(w.start);
      sink.i64(w.end);
      for (const auto& pool : balance.per_machine) {
        sink.u64(pool.size());
        for (const JobId id : pool) sink.u64(id.value);
      }
    });
  }

  /// Loads serialize()'s bytes into this empty ledger and rebuilds the
  /// directory. Malformed input, an empty or repeated window and an id
  /// listed twice are rejected through source.corrupt(); whether the
  /// shares keep Lemma 3 is audit()'s call.
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
      balance->per_machine.resize(machines_);
      for (MachineId machine = 0; machine < machines_; ++machine) {
        auto& pool = balance->per_machine[machine];
        // No reserve: a size beyond the input runs out of bytes first.
        const std::uint64_t size = source.u64();
        for (std::uint64_t k = 0; k < size; ++k) {
          const JobId id{source.u64()};
          const auto [info, unseen] = jobs_.try_emplace(id);
          if (!unseen) source.corrupt("BalanceLedger::deserialize: duplicate job");
          *info = JobInfo{w, machine, append(pool, id)};
        }
        balance->count += size;
      }
      if (balance->count == 0) source.corrupt("BalanceLedger::deserialize: empty window");
    }
  }

  /// Incremental audit: re-verifies only the windows whose balance state
  /// changed since the last call (commits mark them dirty).
  /// The first call is a full sweep — dirt accumulated only from then on —
  /// after which the cost is O(windows touched since last audit). Returns
  /// the number of windows verified. Not thread-safe; the owning front end
  /// calls it from its caller thread.
  std::size_t audit_incremental() {
    if (!track_dirty_) {
      track_dirty_ = true;
      audit();
      return windows_.size();
    }
    return dirty_.drain(0, [&](const Window& w) { audit_window(w); });
  }

  /// Registers the Lemma 3 check as "svc.L3.balance-shares".
  void register_invariants(audit::InvariantTable& table) const {
    table.add("svc.L3.balance-shares", "ShardedScheduler",
              "every machine holds floor/ceil(n_W/m) jobs of each window, "
              "extras on the earliest machines (Lemma 3)",
              [this] { audit(); });
  }

  /// Deliberate corruption for the differential audit tests: moves one job
  /// to the next machine without touching the counts (marks the window
  /// dirty, as the buggy mutation path would have). Returns false when
  /// there is no job to move or no machine to move it to.
  bool corrupt_for_test() {
    if (machines_ < 2 || jobs_.empty()) return false;
    JobId moved{};
    MachineId dest = 0;
    jobs_.for_each_until([&](const JobId& id, const JobInfo& info) {
      moved = id;
      dest = (info.machine + 1) % machines_;
      return true;
    });
    commit_migration(moved, dest);
    return true;
  }

 private:
  struct BalanceState {
    std::uint64_t count = 0;                      // n_W
    std::vector<std::vector<JobId>> per_machine;  // W-jobs per machine
  };

  /// Appends `id` to `pool` and returns its position.
  static std::uint32_t append(std::vector<JobId>& pool, JobId id) {
    pool.push_back(id);
    return static_cast<std::uint32_t>(pool.size() - 1);
  }

  /// Swap-with-last removal of pool[pos]; the displaced last job takes the
  /// hole and its directory position is rewritten.
  void remove(std::vector<JobId>& pool, std::uint32_t pos) {
    if (pos + 1 != pool.size()) {
      pool[pos] = pool.back();
      jobs_.at(pool[pos]).pos = pos;
    }
    pool.pop_back();
  }

  /// Lemma 3 for one window, the per-window body of audit(): machine i
  /// holds ⌊n_W/m⌋ jobs, plus one for the first n_W mod m machines. A
  /// window absent from the ledger (deactivated since it was marked dirty)
  /// is vacuously balanced.
  void audit_window(const Window& w) const {
    const BalanceState* balance = windows_.find(w);
    if (balance == nullptr) return;
    for (std::uint64_t i = 0; i < machines_; ++i) {
      const std::uint64_t expected =
          balance->count / machines_ + (i < balance->count % machines_ ? 1 : 0);
      RS_CHECK(balance->per_machine[i].size() == expected,
               "audit_balance: machine share deviates from round-robin invariant");
    }
  }

  void mark_dirty(const Window& w) {
    if (track_dirty_) dirty_.mark(w);
  }

  unsigned machines_ = 1;
  FlatHashMap<Window, BalanceState> windows_;
  FlatHashMap<JobId, JobInfo> jobs_;  // the directory: one entry per pooled job
  /// Dirty-window queue for audit_incremental; off until the first
  /// incremental call so the sequential front end pays nothing by default.
  /// Mutable: a successful const full sweep discharges the queue.
  bool track_dirty_ = false;
  mutable audit::DirtyQueue<Window> dirty_;
};

}  // namespace reasched
