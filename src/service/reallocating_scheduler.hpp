// The full Theorem-1 pipeline: align (§5) → delegate round-robin (§3) →
// single-machine pecking-order scheduling with reservations (§4).
//
// For any m-machine γ-underallocated request sequence (γ the paper's
// constant), each request causes O(min{log* n, log* Δ}) reallocations and
// at most one machine migration. The §3 delegation is ShardedScheduler's
// sequential path, with one shard and no WAL.
#pragma once

#include <string>

#include "core/scheduler_options.hpp"
#include "schedule/scheduler_interface.hpp"
#include "service/sharded_scheduler.hpp"

namespace reasched {

class ReallocatingScheduler final : public IReallocScheduler {
 public:
  /// Default pipeline: per-machine ReservationScheduler instances.
  explicit ReallocatingScheduler(unsigned machines, SchedulerOptions options = {});

  /// Custom inner scheduler (e.g. NaiveScheduler) behind the same
  /// align-and-delegate front end; used by benchmarks for fair comparison.
  ReallocatingScheduler(unsigned machines, const ShardedScheduler::Factory& factory,
                        std::string label);

  RequestStats insert(JobId id, Window window) override;
  RequestStats erase(JobId id) override;

  [[nodiscard]] Schedule snapshot() const override { return inner_.snapshot(); }
  [[nodiscard]] std::size_t active_jobs() const override { return inner_.active_jobs(); }
  [[nodiscard]] unsigned machines() const override { return inner_.machines(); }
  [[nodiscard]] std::string name() const override { return label_; }

  [[nodiscard]] ShardedScheduler& balancer() noexcept { return inner_; }

 private:
  ShardedScheduler inner_;
  std::string label_;
};

}  // namespace reasched
