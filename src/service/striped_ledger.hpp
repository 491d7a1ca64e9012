// Striped balancer ledger for the sharded scheduling service.
//
// The sequential MultiMachineScheduler keeps one window ledger and one job
// directory; planning a batch through a single pair would serialize every
// delegation decision. Here both are striped:
//
//   * window stripes — stripe_of(W) = hash(W) & (stripes-1); each stripe
//     owns a BalanceLedger (core/balance_ledger.hpp) for its windows plus a
//     mutex. All balance state of a window — including the §3 rebalance
//     migrations, which never cross windows — lives in exactly one stripe,
//     so delegation decisions for different windows proceed concurrently.
//   * job stripes — stripe_of(id) = hash(id) & (stripes-1); each stripe
//     owns a JobId → JobInfo directory shard plus a mutex. A job's window
//     and its job-directory entry generally hash to *different* stripes, so
//     the two stripe arrays are independent.
//
// Locking discipline (see DESIGN.md §5): a thread holds at most one window
// stripe lock and at most one job stripe lock at a time, and always
// acquires the window stripe before any job stripe. Stripe mutexes guard
// the *internal* parallelism of ShardedScheduler::apply; the public
// IReallocScheduler entry points themselves follow the repository-wide
// single-caller discipline.
#pragma once

#include <bit>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "audit/invariant_check.hpp"
#include "core/balance_ledger.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

class StripedLedger {
 public:
  struct WindowStripe {
    mutable std::mutex mutex;
    BalanceLedger ledger;
  };
  struct JobStripe {
    mutable std::mutex mutex;
    FlatHashMap<JobId, JobInfo> jobs;
  };

  /// `stripes` is rounded up to a power of two (mask-based selection).
  StripedLedger(unsigned machines, std::size_t stripes)
      : stripe_mask_(std::bit_ceil(stripes < 2 ? std::size_t{2} : stripes) - 1) {
    const std::size_t count = stripe_mask_ + 1;
    window_stripes_ = std::make_unique<WindowStripe[]>(count);
    job_stripes_ = std::make_unique<JobStripe[]>(count);
    for (std::size_t i = 0; i < count; ++i) {
      window_stripes_[i].ledger = BalanceLedger(machines);
    }
  }

  [[nodiscard]] std::size_t stripes() const noexcept { return stripe_mask_ + 1; }

  [[nodiscard]] std::size_t stripe_of(const Window& w) const noexcept {
    return std::hash<Window>{}(w)&stripe_mask_;
  }
  [[nodiscard]] std::size_t stripe_of(JobId id) const noexcept {
    return std::hash<JobId>{}(id)&stripe_mask_;
  }

  [[nodiscard]] WindowStripe& window_stripe(std::size_t index) noexcept {
    return window_stripes_[index];
  }
  [[nodiscard]] WindowStripe& window_stripe_for(const Window& w) noexcept {
    return window_stripes_[stripe_of(w)];
  }

  // ---- job directory (each call locks the job's stripe) ----

  [[nodiscard]] std::optional<JobInfo> find_job(JobId id) const {
    const JobStripe& stripe = job_stripes_[stripe_of(id)];
    std::lock_guard lock(stripe.mutex);
    const JobInfo* info = stripe.jobs.find(id);
    return info ? std::optional<JobInfo>(*info) : std::nullopt;
  }

  void insert_job(JobId id, const JobInfo& info) {
    JobStripe& stripe = job_stripes_[stripe_of(id)];
    std::lock_guard lock(stripe.mutex);
    stripe.jobs[id] = info;
  }

  void erase_job(JobId id) {
    JobStripe& stripe = job_stripes_[stripe_of(id)];
    std::lock_guard lock(stripe.mutex);
    stripe.jobs.erase(id);
  }

  void set_job_machine(JobId id, MachineId machine) {
    JobStripe& stripe = job_stripes_[stripe_of(id)];
    std::lock_guard lock(stripe.mutex);
    stripe.jobs.at(id).machine = machine;
  }

  [[nodiscard]] std::size_t active_jobs() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i <= stripe_mask_; ++i) {
      std::lock_guard lock(job_stripes_[i].mutex);
      total += job_stripes_[i].jobs.size();
    }
    return total;
  }

  /// Balance invariant (Lemma 3) across every stripe.
  void audit() const {
    for (std::size_t i = 0; i <= stripe_mask_; ++i) {
      std::lock_guard lock(window_stripes_[i].mutex);
      window_stripes_[i].ledger.audit();
    }
  }

  /// Incremental balance audit of one stripe: re-verifies only the windows
  /// whose ledger state changed since that stripe's last audit (the
  /// stripe's BalanceLedger keeps its own dirty set, so stripes audit
  /// independently — and, from different workers, concurrently; each call
  /// takes only its own stripe's lock). Returns windows verified.
  std::size_t audit_stripe_incremental(std::size_t index) {
    WindowStripe& stripe = window_stripes_[index];
    std::lock_guard lock(stripe.mutex);
    return stripe.ledger.audit_incremental();
  }

  /// Incremental balance audit across every stripe (sequential; the
  /// sharded scheduler fans the stripes out across its workers instead —
  /// ShardedScheduler::audit_balance_incremental). Returns windows verified.
  std::size_t audit_incremental() {
    std::size_t verified = 0;
    for (std::size_t i = 0; i <= stripe_mask_; ++i) {
      verified += audit_stripe_incremental(i);
    }
    return verified;
  }

  /// Registers one Lemma 3 check per stripe ("svc.stripe<i>.L3.balance-shares")
  /// so the striped ledger's invariants are enumerable from one table.
  /// Checks lock their stripe when run.
  void register_invariants(audit::InvariantTable& table) const {
    for (std::size_t i = 0; i <= stripe_mask_; ++i) {
      table.add("svc.stripe" + std::to_string(i) + ".L3.balance-shares",
                "StripedLedger",
                "per-stripe round-robin balance shares (Lemma 3)", [this, i] {
                  std::lock_guard lock(window_stripes_[i].mutex);
                  window_stripes_[i].ledger.audit();
                });
    }
  }

  /// Deliberate corruption for the differential audit tests: desyncs one
  /// stripe's share sets (see BalanceLedger::corrupt_for_test). Returns
  /// false when no stripe holds a movable job.
  bool corrupt_for_test() {
    for (std::size_t i = 0; i <= stripe_mask_; ++i) {
      std::lock_guard lock(window_stripes_[i].mutex);
      if (window_stripes_[i].ledger.corrupt_for_test()) return true;
    }
    return false;
  }

 private:
  std::size_t stripe_mask_;
  std::unique_ptr<WindowStripe[]> window_stripes_;
  std::unique_ptr<JobStripe[]> job_stripes_;
};

}  // namespace reasched
