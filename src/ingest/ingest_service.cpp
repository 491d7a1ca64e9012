#include "ingest/ingest_service.hpp"

#include <chrono>
#include <thread>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace reasched::ingest {

namespace {

// Interned once per process; every record site is a relaxed load + branch
// when telemetry is off (DESIGN.md §10).
const telemetry::Counter& admitted_counter() {
  RS_TELEM_COUNTER(kAdmitted, "ingest.admitted");
  return kAdmitted;
}
const telemetry::Counter& rejected_counter() {
  RS_TELEM_COUNTER(kRejected, "ingest.rejected");
  return kRejected;
}
const telemetry::Counter& shed_counter() {
  RS_TELEM_COUNTER(kShed, "ingest.shed_total");
  return kShed;
}
const telemetry::Counter& rejected_depth_counter() {
  RS_TELEM_COUNTER(kRejectedDepth, "ingest.rejected_depth_total");
  return kRejectedDepth;
}
const telemetry::Gauge& compliance_gauge() {
  RS_TELEM_GAUGE(kCompliant, "ingest.p99_compliant");
  return kCompliant;
}
const telemetry::Counter& batch_counter() {
  RS_TELEM_COUNTER(kBatches, "ingest.batches");
  return kBatches;
}
const telemetry::Gauge& depth_gauge() {
  RS_TELEM_GAUGE(kDepth, "ingest.queue.depth");
  return kDepth;
}
const telemetry::Histogram& sojourn_histogram() {
  RS_TELEM_HISTOGRAM(kSojourn, "ingest.sojourn_ns");
  return kSojourn;
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

IngestService::IngestService(IReallocScheduler& scheduler, IngestOptions options)
    : scheduler_(scheduler),
      options_(std::move(options)),
      admission_(AdmissionController::Options{
          options_.max_queue_depth,
          options_.p99_budget_us * 1000,
          options_.admission_epoch_samples == 0 ? 1
                                                : options_.admission_epoch_samples}) {
  RS_REQUIRE(!options_.external_sequencing || (options_.max_queue_depth == 0 &&
                                               options_.p99_budget_us == 0),
             "external sequencing pre-claims tickets; shedding would leave a "
             "permanent gap in the apply order (use blocking backpressure)");
  if (options_.lanes == 0) options_.lanes = 4;
  if (options_.max_batch == 0) options_.max_batch = 1;
  telemetry::enable(options_.telemetry);
  lanes_.reserve(options_.lanes);
  for (std::size_t i = 0; i < options_.lanes; ++i) {
    lanes_.push_back(std::make_unique<MpscRing<Item>>(options_.lane_capacity));
  }
  consumer_ = std::thread([this] { consumer_loop(); });
}

IngestService::~IngestService() { stop(); }

std::size_t IngestService::lane_of_this_thread() noexcept {
  // A process-wide cookie (not per-service) keeps the lookup to one
  // thread-local read; lanes are MPSC rings, so two threads sharing a lane
  // is a throughput concern, never a correctness one.
  static std::atomic<std::size_t> next_cookie{0};
  thread_local const std::size_t cookie =
      next_cookie.fetch_add(1, std::memory_order_relaxed);
  return cookie % lanes_.size();
}

Admit IngestService::push(const Request& request) {
  RS_REQUIRE(!options_.external_sequencing,
             "push() claims tickets internally; use push_sequenced()");
  // Reserve a depth slot first, then ask for the verdict against the
  // pre-reservation count: concurrent producers each see the depth their
  // admission would create, so the in-flight count never exceeds
  // max_queue_depth — exact accounting, not sampled (ingest_admission_test).
  const std::size_t before = depth_.fetch_add(1, std::memory_order_relaxed);
  const Admit verdict = admission_.admit(before);
  if (verdict != Admit::kAdmitted) {
    depth_.fetch_sub(1, std::memory_order_relaxed);
    if (verdict == Admit::kRejectedDepth) {
      rejected_depth_.fetch_add(1, std::memory_order_relaxed);
      RS_TELEM_ADD(rejected_depth_counter(), 1);
    } else {
      rejected_latency_.fetch_add(1, std::memory_order_relaxed);
      RS_TELEM_ADD(shed_counter(), 1);
    }
    RS_TELEM_ADD(rejected_counter(), 1);
    return verdict;
  }
  const std::uint64_t ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  RS_TELEM_ADD(admitted_counter(), 1);
  RS_TELEM_GAUGE_ADD(depth_gauge(), 1);
  enqueue(ticket, request);
  return Admit::kAdmitted;
}

void IngestService::push_sequenced(std::uint64_t ticket, const Request& request) {
  RS_REQUIRE(options_.external_sequencing,
             "push_sequenced() requires Options::external_sequencing");
  depth_.fetch_add(1, std::memory_order_relaxed);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  RS_TELEM_ADD(admitted_counter(), 1);
  RS_TELEM_GAUGE_ADD(depth_gauge(), 1);
  enqueue(ticket, request);
}

void IngestService::enqueue(std::uint64_t ticket, const Request& request) {
  Item item;
  item.ticket = ticket;
  item.push_ns = telemetry::now_ns();
  item.request = request;
  MpscRing<Item>& lane = *lanes_[lane_of_this_thread()];
  // Full lane = backpressure: stall (never drop — the ticket is claimed),
  // spinning briefly before yielding so a momentarily-behind consumer costs
  // no syscall.
  for (unsigned spin = 0; !lane.try_push(item); ++spin) {
    wake_consumer();
    if (spin < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  wake_consumer();
}

void IngestService::wake_consumer() {
  // Dekker-style handshake with the consumer's park: our ring publish
  // (release) must be ordered before the parked-flag load, and the
  // consumer's parked-flag store before its emptiness re-check. Both sides
  // fence seq_cst; the consumer's park timeout is the belt-and-braces.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (consumer_parked_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_one();
  }
}

std::size_t IngestService::drain_lanes() {
  std::size_t moved = 0;
  for (auto& lane : lanes_) {
    moved += lane->pop_all([this](Item&& item) {
      const std::uint64_t ticket = item.ticket;
      pending_.insert_or_assign(ticket, std::move(item));
    });
  }
  return moved;
}

void IngestService::consumer_loop() {
  const std::uint64_t deadline_ns = options_.batch_deadline_us * 1000;
  const auto rings_empty = [this] {
    for (const auto& lane : lanes_) {
      if (!lane->approx_empty()) return false;
    }
    return true;
  };
  Item item;
  for (;;) {
    if (paused_.load(std::memory_order_acquire) &&
        !stopping_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [this] {
        return !paused_.load(std::memory_order_relaxed) ||
               stopping_.load(std::memory_order_relaxed);
      });
      continue;
    }
    const bool lanes_empty = drain_lanes() == 0;
    // Release the contiguous ticket prefix into the open batch. A gap at
    // next_apply_ (a producer claimed the ticket but has not published yet)
    // holds the batch: apply order IS ticket order, unconditionally.
    while (batch_.size() < options_.max_batch &&
           pending_.take(next_apply_, item) != 0) {
      batch_.push_back(item.request);
      batch_items_.push_back(item);
      ++next_apply_;
    }
    if (batch_.size() >= options_.max_batch) {
      size_closes_.fetch_add(1, std::memory_order_relaxed);
      apply_batch();
      continue;
    }
    if (!batch_.empty()) {
      // A pass that found every lane empty closes the batch: nothing is on
      // its way to fill it. While the lanes stay busy the batch keeps
      // growing, capped at the deadline aged from its first push.
      if (lanes_empty) {
        apply_batch();
      } else if (telemetry::now_ns() - batch_items_.front().push_ns >= deadline_ns) {
        deadline_closes_.fetch_add(1, std::memory_order_relaxed);
        apply_batch();
      }
      continue;
    }
    // Batch empty: nothing releasable. Re-evaluate admission with the
    // current depth — this is where the drain-clears-shedding recovery
    // rule fires when every producer is being shed (no batches means no
    // apply-side evaluate; without this the rejection would be permanent).
    admission_.evaluate(depth_.load(std::memory_order_relaxed));
    update_compliance_gauge();
    if (stopping_.load(std::memory_order_relaxed) &&
        depth_.load(std::memory_order_relaxed) == 0) {
      break;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    consumer_parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (rings_empty() && !stopping_.load(std::memory_order_relaxed)) {
      wake_cv_.wait_for(lock, std::chrono::microseconds(500));
    }
    consumer_parked_.store(false, std::memory_order_relaxed);
  }
  // Unwind this service's gauge contribution so sequential services (tests,
  // bench cases) leave the process-wide level at zero.
  if (compliance_contrib_ != 0) {
    RS_TELEM_GAUGE_ADD(compliance_gauge(), -compliance_contrib_);
    compliance_contrib_ = 0;
  }
}

void IngestService::update_compliance_gauge() {
  if (options_.p99_budget_us == 0) return;
  const std::int64_t desired = admission_.shedding() ? 0 : 1;
  if (desired != compliance_contrib_) {
    RS_TELEM_GAUGE_ADD(compliance_gauge(), desired - compliance_contrib_);
    compliance_contrib_ = desired;
  }
}

void IngestService::apply_batch() {
  const std::size_t n = batch_.size();
  const std::uint64_t first_ticket = batch_items_.front().ticket;
  // Exemplar context for everything the apply records: spans and tail
  // buckets inside the scheduler resolve back to this batch's first ticket.
  RS_TELEM_SET_CSN(first_ticket);
  BatchResult result = scheduler_.apply(batch_);
  if (options_.record_stats) {
    RS_CHECK(applied_stats_.size() == first_ticket,
             "recorded stats must stay dense in ticket order");
    applied_stats_.insert(applied_stats_.end(), result.stats.begin(),
                          result.stats.end());
    for (const std::uint32_t idx : result.rejected) {
      rejected_tickets_.push_back(first_ticket + idx);
    }
  }
  if (options_.on_batch) {
    options_.on_batch(std::span<const Request>(batch_), result, first_ticket);
  }
  const std::uint64_t now = telemetry::now_ns();
  for (const Item& item : batch_items_) {
    const std::uint64_t sojourn = now - item.push_ns;
    admission_.observe(sojourn);
    // Per-item ticket: a p99.9 sojourn exemplar names the exact request.
    RS_TELEM_SET_CSN(item.ticket);
    RS_TELEM_RECORD(sojourn_histogram(), sojourn);
  }
  scheduler_rejected_.fetch_add(result.rejected.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (n > max_batch_applied_.load(std::memory_order_relaxed)) {
    max_batch_applied_.store(n, std::memory_order_relaxed);
  }
  applied_.fetch_add(n, std::memory_order_relaxed);
  const std::size_t depth_after =
      depth_.fetch_sub(n, std::memory_order_relaxed) - n;
  admission_.evaluate(depth_after);
  update_compliance_gauge();
  RS_TELEM_ADD(batch_counter(), 1);
  RS_TELEM_GAUGE_ADD(depth_gauge(), -static_cast<std::int64_t>(n));
  batch_.clear();
  batch_items_.clear();
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

void IngestService::drain() {
  // The consumer closes the last batch itself once the lanes run empty;
  // apply_batch() notifies under drain_mutex_, so no wakeup is lost.
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [this] {
    return applied_.load(std::memory_order_acquire) ==
           admitted_.load(std::memory_order_acquire);
  });
}

void IngestService::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_.store(true, std::memory_order_release);
    wake_cv_.notify_all();
  }
  if (consumer_.joinable()) consumer_.join();
}

void IngestService::pause_consumer() {
  paused_.store(true, std::memory_order_release);
}

void IngestService::resume_consumer() {
  std::lock_guard<std::mutex> lock(wake_mutex_);
  paused_.store(false, std::memory_order_release);
  wake_cv_.notify_all();
}

IngestStats IngestService::stats() const noexcept {
  IngestStats out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.rejected_depth = rejected_depth_.load(std::memory_order_relaxed);
  out.rejected_latency = rejected_latency_.load(std::memory_order_relaxed);
  out.applied = applied_.load(std::memory_order_relaxed);
  out.scheduler_rejected = scheduler_rejected_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.max_batch = max_batch_applied_.load(std::memory_order_relaxed);
  out.deadline_closes = deadline_closes_.load(std::memory_order_relaxed);
  out.size_closes = size_closes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace reasched::ingest
