// Multi-machine → single-machine reduction (paper §3), sequential front end.
//
// Delegation decisions live in core/balance_ledger.hpp (shared with the
// sharded service layer in src/service/); this adapter owns the per-machine
// single-machine schedulers and orders their insert/erase calls around the
// ledger's plan/commit steps exactly as the paper's sequential reduction
// prescribes. All actual scheduling is performed by the per-machine
// schedulers (Lemma 3 shows the per-machine instances stay underallocated).
//
// The adapter is generic over the single-machine scheduler so the paper's
// scheduler and the baselines can be compared under the same reduction.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/balance_ledger.hpp"
#include "schedule/scheduler_interface.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

class MultiMachineScheduler final : public IReallocScheduler {
 public:
  using Factory = std::function<std::unique_ptr<IReallocScheduler>()>;

  /// Creates `machines` single-machine schedulers via `factory`.
  MultiMachineScheduler(unsigned machines, const Factory& factory);

  RequestStats insert(JobId id, Window window) override;
  RequestStats erase(JobId id) override;

  [[nodiscard]] Schedule snapshot() const override;
  [[nodiscard]] std::size_t active_jobs() const override { return jobs_.size(); }
  [[nodiscard]] unsigned machines() const override {
    return static_cast<unsigned>(machines_.size());
  }
  [[nodiscard]] std::string name() const override;

  /// Balancing invariant check (Lemma 3); throws InternalError on violation.
  void audit_balance() const { ledger_.audit(); }

  /// Incremental balance audit: re-verifies only windows whose delegation
  /// state changed since the last call (see BalanceLedger::audit_incremental).
  std::size_t audit_balance_incremental() { return ledger_.audit_incremental(); }

  /// Registers the reduction's Lemma 3 check ("mm.L3.balance-shares").
  void register_invariants(audit::InvariantTable& table) const {
    ledger_.register_invariants(table, "mm", "MultiMachineScheduler");
  }

 private:
  std::vector<std::unique_ptr<IReallocScheduler>> machines_;
  BalanceLedger ledger_;
  FlatHashMap<JobId, JobInfo> jobs_;
};

}  // namespace reasched
