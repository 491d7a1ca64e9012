// Lock-free asynchronous ingestion front end (DESIGN.md §11): many
// concurrent producer threads push single requests; one consumer thread
// re-sequences them, forms batches adaptively, and hands the batches to an
// IReallocScheduler's apply() — in practice the sharded service layer
// (service/sharded_scheduler.hpp), whose single-caller batch entry point
// this tier turns into a server.
//
// Pipeline:
//
//   producers ──try_push──▶  MPSC ring per lane   ──pop──▶  consumer
//        │                  (ingest/mpsc_ring.hpp)             │
//        └── AdmissionController::admit (depth / p99 budget)   │
//                                            reorder by ticket │
//                       self-clocking batcher (empty lanes, B) ▼
//                                            scheduler.apply(batch)
//
// Sequencing. Every admitted request carries a dense *ticket*. In internal
// mode push() claims the next ticket with one fetch_add after admission
// passes; in external mode (Options::external_sequencing) producers supply
// tickets 0,1,2,... themselves (e.g. a trace index partitioned round-robin
// across threads). The consumer applies requests in strict ticket order —
// lanes are drained into a reorder stage that releases the contiguous
// ticket prefix — so the schedule, per-request stats, audit state, and WAL
// (CSN order) are EXACTLY those of the same sequence served by a single
// caller: concurrent ingestion provably changes nothing about the
// schedules produced (tests/ingest_differential_test.cpp, byte-identical
// at 1/2/4/8 producers). Admission rejections happen before a ticket is
// claimed, so they never leave a gap and are never logged write-ahead —
// replaying the WAL deterministically re-rejects them by absence, while
// scheduler-level rejections (infeasible inserts) are logged and re-reject
// on replay exactly as in the durability tier (DESIGN.md §9).
//
// Batching. The consumer closes a batch as soon as a drain pass finds every
// lane empty, or when it holds Options::max_batch requests — it never parks
// holding an open batch. The rule is self-clocking, like group commit: under
// light load a request is applied as soon as the consumer sees it; under
// backlog whatever arrived during the previous apply() forms the next batch,
// which grows toward max_batch while the lanes stay busy, so the service
// rides the batch amortization curve of EXPERIMENTS.md §E13.
// Options::batch_deadline_us only caps how long a batch is held while the
// lanes stay busy (e.g. a claimed but unpublished ticket holds the prefix).
// The E21 serving benchmark (servebench/README.md) measures both regimes end
// to end: paced sojourn (p50_us, ingest.wait_us) and saturation throughput
// (drain_rps).
//
// Backpressure. A full lane never blocks inside the ring: push loops
// try_push with exponential backoff, so producers *stall* (bounded memory)
// unless admission is configured to shed instead (ingest/admission.hpp).
//
// Threading contract: push()/push_sequenced() from any number of threads;
// stats()/queue_depth() from anywhere; drain()/stop() from one controller
// thread after producers quiesced; applied_stats()/rejected_tickets() only
// after stop() (or while no producer is active and drain() returned).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "ingest/admission.hpp"
#include "ingest/mpsc_ring.hpp"
#include "schedule/scheduler_interface.hpp"
#include "telemetry/options.hpp"
#include "util/flat_hash.hpp"

namespace reasched::ingest {

struct IngestOptions {
  /// MPSC lanes (rings). Producers are assigned a lane round-robin on
  /// first push (thread-affine thereafter), so up to `lanes` producers
  /// push without sharing a claim cursor. 0 = auto (4).
  std::size_t lanes = 0;
  /// Ring slots per lane (rounded up to a power of two).
  std::size_t lane_capacity = 4096;
  /// Close the batch at this many requests (or when every lane is empty).
  std::size_t max_batch = 1024;
  /// Hard cap while the lanes stay busy: close the batch once its first
  /// request was pushed this many microseconds ago.
  std::uint64_t batch_deadline_us = 200;
  /// Admission control thresholds (0 = disabled); see ingest/admission.hpp.
  std::size_t max_queue_depth = 0;
  std::uint64_t p99_budget_us = 0;
  std::size_t admission_epoch_samples = 1024;
  /// Tickets are supplied by producers (push_sequenced) instead of claimed
  /// internally. Requires both admission thresholds disabled: an external
  /// ticket is already claimed, so shedding would leave a permanent gap.
  bool external_sequencing = false;
  /// Record per-ticket RequestStats and scheduler-rejected tickets for
  /// differential tests (consumer-side; read after stop()).
  bool record_stats = false;
  /// Invoked by the consumer after every applied batch with the batch's
  /// requests (ticket order), the BatchResult, and the first ticket.
  std::function<void(std::span<const Request>, const BatchResult&, std::uint64_t)>
      on_batch;
  /// Runtime gate for the telemetry tier; construction flips the
  /// process-wide recording switches (turn-on only).
  telemetry::TelemetryOptions telemetry;
};

/// Exact request accounting, reconciling to:
///   pushes = admitted + rejected_depth + rejected_latency
///   admitted = applied (after drain) = served + scheduler_rejected
struct IngestStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_depth = 0;
  std::uint64_t rejected_latency = 0;
  std::uint64_t applied = 0;            ///< handed to the scheduler
  std::uint64_t scheduler_rejected = 0; ///< BatchResult::rejected entries
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;          ///< largest batch applied
  std::uint64_t deadline_closes = 0;    ///< closed by the busy-lane cap
  std::uint64_t size_closes = 0;        ///< closed by reaching max_batch
  // The rest (batches - deadline_closes - size_closes) closed on empty lanes.
};

class IngestService {
 public:
  IngestService(IReallocScheduler& scheduler, IngestOptions options);
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Internal-sequencing push: admission check, ticket claim, lane
  /// enqueue (stalling with backoff while the lane is full). Returns the
  /// admission verdict; a rejected request touches no queue and no ticket.
  Admit push(const Request& request);

  /// External-sequencing push: the caller owns ticket assignment (dense
  /// from 0, each ticket pushed exactly once). Never rejects; stalls on a
  /// full lane.
  void push_sequenced(std::uint64_t ticket, const Request& request);

  /// Blocks until every admitted request has been applied. Call after
  /// producers have quiesced (no concurrent push).
  void drain();

  /// Drains, then stops the consumer thread. Idempotent; the destructor
  /// calls it.
  void stop();

  [[nodiscard]] IngestStats stats() const noexcept;
  /// Exact in-flight count (admitted - applied) — the value admission
  /// decisions and the "ingest.queue.depth" gauge see.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

  // ---- results for differential tests (valid after stop()) ----
  [[nodiscard]] const std::vector<RequestStats>& applied_stats() const noexcept {
    return applied_stats_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& rejected_tickets() const noexcept {
    return rejected_tickets_;
  }

  // ---- test hooks ----
  /// Parks the consumer before its next batch apply, so tests can fill
  /// queues to exact depths. Admission and pushes are unaffected.
  void pause_consumer();
  void resume_consumer();

 private:
  struct Item {
    std::uint64_t ticket = 0;
    std::uint64_t push_ns = 0;
    Request request;
  };

  void consumer_loop();
  /// Refreshes the "ingest.p99_compliant" gauge (1 = last closed admission
  /// epoch met the p99 budget, 0 = shedding) from the consumer thread.
  void update_compliance_gauge();
  /// Drains every lane into the reorder stage; returns items moved.
  std::size_t drain_lanes();
  /// Applies the current batch and updates accounting/admission.
  void apply_batch();
  void enqueue(std::uint64_t ticket, const Request& request);
  void wake_consumer();
  [[nodiscard]] std::size_t lane_of_this_thread() noexcept;

  IReallocScheduler& scheduler_;
  IngestOptions options_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<MpscRing<Item>>> lanes_;

  // Producer-shared state.
  std::atomic<std::uint64_t> next_ticket_{0};  // internal mode only
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_depth_{0};
  std::atomic<std::uint64_t> rejected_latency_{0};
  std::atomic<std::size_t> next_lane_{0};

  // Consumer-owned state (written only by the consumer thread; counters
  // atomic so stats() may read concurrently).
  FlatHashMap<std::uint64_t, Item> pending_;  // reorder stage
  std::vector<Request> batch_;
  std::vector<Item> batch_items_;
  std::uint64_t next_apply_ = 0;  // next ticket to release from pending_
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> scheduler_rejected_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> max_batch_applied_{0};
  std::atomic<std::uint64_t> deadline_closes_{0};
  std::atomic<std::uint64_t> size_closes_{0};
  std::vector<RequestStats> applied_stats_;
  std::vector<std::uint64_t> rejected_tickets_;
  // This service's current contribution to the additive compliance gauge
  // (consumer thread only); unwound when the consumer exits so sequential
  // services do not accumulate.
  std::int64_t compliance_contrib_ = 0;

  // Consumer parking / wake (producers signal after publishing); the
  // consumer parks only with no open batch.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> consumer_parked_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopping_{false};

  // drain() rendezvous (consumer notifies after each apply).
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::thread consumer_;
};

}  // namespace reasched::ingest
