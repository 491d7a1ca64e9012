// Batched service: driving the sharded scheduling service with request
// batches instead of one request at a time.
//
//   $ ./example_batched_service
//
// Builds an 8-machine ShardedScheduler with 4 worker shards, serves a churn
// workload through the batched API, and shows that the result is
// indistinguishable from the sequential reduction (a one-shard
// ShardedScheduler served per request) — same schedule, same per-request
// costs — while amortizing per-request fixed costs across each batch
// (EXPERIMENTS.md §E13 quantifies the throughput).
#include <iostream>

#include "reasched/reasched.hpp"

int main() {
  using namespace reasched;

  constexpr unsigned kMachines = 8;
  const auto factory = [] {
    SchedulerOptions options;
    options.overflow = OverflowPolicy::kBestEffort;
    return std::make_unique<ReservationScheduler>(options);
  };

  ShardedScheduler::Options service;
  service.shards = 4;
  ShardedScheduler sharded(kMachines, factory, service);
  ShardedScheduler sequential(kMachines, factory);
  std::cout << "service:    " << sharded.name() << "\nreference:  " << sequential.name()
            << "\n\n";

  // A γ-underallocated churn trace, the same workload family as E12/E13.
  ChurnParams params;
  params.seed = 7;
  params.target_active = 512;
  params.requests = 4'000;
  params.machines = kMachines;
  params.min_span = 64;
  params.max_span = 2048;
  const std::vector<Request> trace = make_churn_trace(params);

  // Serve the whole trace in batches of 256 through the service...
  constexpr std::size_t kBatch = 256;
  RequestStats batched_total;
  for (std::size_t first = 0; first < trace.size(); first += kBatch) {
    const std::size_t count = std::min(kBatch, trace.size() - first);
    const BatchResult result =
        sharded.apply(std::span<const Request>(trace).subspan(first, count));
    batched_total += result.total;
    // One balance audit per *batch* — the amortized self-checking cadence.
    sharded.audit_balance();
  }

  // ...and one at a time through the sequential reduction.
  RequestStats sequential_total;
  for (const Request& request : trace) {
    sequential_total += request.kind == RequestKind::kInsert
                            ? sequential.insert(request.job, request.window)
                            : sequential.erase(request.job);
  }

  std::cout << "requests:          " << trace.size() << " (batches of " << kBatch
            << ")\nactive jobs:       " << sharded.active_jobs()
            << "\nreallocations:     batched=" << batched_total.reallocations
            << " sequential=" << sequential_total.reallocations
            << "\nmigrations:        batched=" << batched_total.migrations
            << " sequential=" << sequential_total.migrations << '\n';

  // Delegation is fixed by the §3 round-robin rule, so the two paths must
  // agree placement-for-placement.
  const Schedule batched_snapshot = sharded.snapshot();
  const Schedule sequential_snapshot = sequential.snapshot();
  std::size_t mismatches = 0;
  for (const auto& [job, placement] : sequential_snapshot.assignments()) {
    const auto other = batched_snapshot.find(job);
    if (!other.has_value() || other->machine != placement.machine ||
        other->slot != placement.slot) {
      ++mismatches;
    }
  }
  std::cout << "placement diffs:   " << mismatches << " of "
            << sequential_snapshot.size() << '\n';
  return mismatches == 0 &&
                 batched_total.reallocations == sequential_total.reallocations
             ? 0
             : 1;
}
