// Common interface implemented by every reallocating scheduler in this
// repository (the paper's scheduler and all baselines), so the simulation
// driver, benchmarks, and tests can drive them interchangeably.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/types.hpp"
#include "base/window.hpp"
#include "schedule/schedule.hpp"
#include "util/flat_hash.hpp"

namespace reasched {

/// Result of serving a request batch (IReallocScheduler::apply).
///
/// Requests are served in order. Under the default (sequential)
/// implementation `stats[i]` is exactly what serving request i individually
/// would have returned; overrides guarantee the same for batches in which
/// no request is rejected, and document their own rejection-path guarantees
/// (see ShardedScheduler). A request is *rejected* — listed in `rejected`,
/// with zeroed stats — when it is an insert the scheduler cannot
/// accommodate (the per-request InfeasibleError, reported instead of thrown
/// so one infeasible job does not abort the batch), or a delete of a job
/// whose insert was rejected earlier in the same batch. A delete of a job
/// the scheduler has never been asked to insert is a precondition violation
/// and throws, exactly like erase().
struct BatchResult {
  std::vector<RequestStats> stats;      ///< per request, batch order
  std::vector<std::uint32_t> rejected;  ///< indices of rejected requests, ascending
  RequestStats total;                   ///< sum over served requests

  /// Commit sequence numbers assigned to this batch's requests by an
  /// attached write-ahead log (durability/wal.hpp): the batch covers CSNs
  /// [first_csn, last_csn], dense and in batch order. Both stay 0 when no
  /// WAL is attached (the common in-memory configuration) or the batch is
  /// empty.
  std::uint64_t first_csn = 0;
  std::uint64_t last_csn = 0;

  [[nodiscard]] bool all_served() const noexcept { return rejected.empty(); }
};

class IReallocScheduler {
 public:
  virtual ~IReallocScheduler() = default;

  /// Serves ⟨INSERTJOB, id, window⟩. Throws InfeasibleError if the scheduler
  /// cannot accommodate the job (policy-dependent). `id` must be fresh.
  virtual RequestStats insert(JobId id, Window window) = 0;

  /// Serves ⟨DELETEJOB, id⟩. `id` must be active.
  virtual RequestStats erase(JobId id) = 0;

  /// Throws ContractViolation when insert() would refuse `window` as a
  /// precondition violation, whatever the id; returns otherwise. The
  /// default requires a non-empty window. A front end that logs a request
  /// before its machine sees it (ShardedScheduler with a WAL) checks here
  /// first, so no precondition-violating insert reaches the log.
  virtual void check_window(Window window) const;

  /// Serves a batch of requests, in order. The default implementation is a
  /// sequential per-request loop (insert/erase) that downgrades per-request
  /// InfeasibleError to a `rejected` entry; overrides may amortize
  /// per-request fixed costs or fan the batch out across shards, but must
  /// preserve the sequential semantics documented on BatchResult.
  virtual BatchResult apply(std::span<const Request> batch);

  /// Materializes the current feasible assignment (paper §2: the scheduler
  /// must be able to output its schedule at any point).
  [[nodiscard]] virtual Schedule snapshot() const = 0;

  /// Active job count.
  [[nodiscard]] virtual std::size_t active_jobs() const = 0;

  /// Number of machines this scheduler schedules onto.
  [[nodiscard]] virtual unsigned machines() const = 0;

  /// Human-readable identifier for tables and logs.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Serves one request of an in-order batch under the batch rejection rule
/// (BatchResult): an insert that throws InfeasibleError is rejected and its
/// id remembered in `rejected_ids`; a later erase of a remembered id is
/// moot, rejected without reaching `scheduler`. Returns whether the request
/// was served; only then is `stats` written. Precondition violations
/// propagate exactly as from insert()/erase(). The rule's one
/// implementation: every in-order batch loop serves through it (WAL
/// recovery replays through apply() and carries the rule across its
/// batches).
bool serve_request(IReallocScheduler& scheduler, const Request& request,
                   FlatHashSet<JobId>& rejected_ids, RequestStats& stats);

}  // namespace reasched
