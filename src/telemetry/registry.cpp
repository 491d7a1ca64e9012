#include "telemetry/registry.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace reasched::telemetry {
namespace detail {

thread_local ThreadShard* t_shard = nullptr;

namespace {

// Retires the thread's shard (fold values into the registry's accumulator,
// salvage its trace events) when the thread exits. Ordering note: the
// registry is a function-local static constructed inside ensure_shard()
// *before* this owner is first touched, so it outlives every owner — both
// for pthread-exit TLS destruction and for the main thread at exit().
struct ShardOwner {
  ThreadShard* shard = nullptr;
  ~ShardOwner() {
    if (shard != nullptr) Registry::global().retire_shard(shard);
  }
};
thread_local ShardOwner t_owner;

}  // namespace

ThreadShard* ensure_shard() {
  ThreadShard* shard = Registry::global().register_shard();
  t_owner.shard = shard;
  t_shard = shard;
  return shard;
}

HistShard* ensure_hist(ThreadShard& shard, std::uint32_t id) {
  auto* hist = new HistShard();
  shard.hists[id].store(hist, std::memory_order_release);
  return hist;
}

void ring_push(const char* name, std::uint64_t ts_ticks, std::uint64_t dur_ticks,
               char phase, std::uint64_t id, std::uint64_t csn) {
  shard().ring.push(TraceEvent{name, ts_ticks, dur_ticks, id, csn, phase});
}

namespace {

// Per-(histogram, octave) exemplar slots: a flat constant-initialized array
// so the trace-tier record path never pays the function-local-static guard
// Registry::global() carries. Writers claim via an even→odd seq CAS (losers
// skip — latest-wins is best-effort under contention); the snapshot reader
// retries around odd/changed seqs. Every field is an atomic so the seqlock
// is also a data-race-free program, not just a logically benign one (the
// TSan lane runs concurrent recorders against a scraping thread).
struct ExemplarSlot {
  std::atomic<std::uint32_t> seq{0};  // 0 = never written; odd = mid-write
  std::atomic<std::uint64_t> value{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> csn{0};
};
ExemplarSlot g_exemplars[kMaxHistograms * kOctaves];

}  // namespace

void capture_exemplar(std::uint32_t hist_id, std::uint32_t bucket,
                      std::uint64_t value) noexcept {
  ExemplarSlot& slot =
      g_exemplars[hist_id * kOctaves + bucket / LatencyHistogram::kSub];
  std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1u) != 0) return;  // another writer mid-flight: they are later
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    return;
  }
  slot.value.store(value, std::memory_order_relaxed);
  slot.trace_id.store(t_exemplar.trace_id, std::memory_order_relaxed);
  slot.csn.store(t_exemplar.csn, std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
}

void clear_exemplars() noexcept {
  for (ExemplarSlot& slot : g_exemplars) {
    slot.value.store(0, std::memory_order_relaxed);
    slot.trace_id.store(0, std::memory_order_relaxed);
    slot.csn.store(0, std::memory_order_relaxed);
    slot.seq.store(0, std::memory_order_release);
  }
}

namespace {

/// Consistent read of one slot; false when never written or too contended.
bool read_exemplar(std::uint32_t hist_id, std::uint32_t octave,
                   std::uint64_t& value, std::uint64_t& trace_id,
                   std::uint64_t& csn) noexcept {
  const ExemplarSlot& slot = g_exemplars[hist_id * kOctaves + octave];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0) return false;
    if ((s1 & 1u) != 0) continue;
    value = slot.value.load(std::memory_order_relaxed);
    trace_id = slot.trace_id.load(std::memory_order_relaxed);
    csn = slot.csn.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) == s1) return true;
  }
  return false;
}

}  // namespace

}  // namespace detail

namespace {

constexpr std::size_t kRetiredEventCap = 1u << 16;

// (ticks, steady_clock) pair captured once at registry construction; the
// scrape derives ns-per-tick from the drift against a second pair.
struct CalibrationBase {
  std::uint64_t ticks0;
  std::uint64_t ns0;
};

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void write_histogram_json(std::ostream& os,
                          const Registry::HistogramSnapshot& h) {
  write_json_string(os, h.name);
  os << ":{\"unit\":"
     << (h.unit == Registry::Unit::kTicks ? "\"ns\"" : "\"count\"")
     << ",\"count\":" << h.hist.total() << ",\"mean\":" << h.hist.mean()
     << ",\"p50\":" << h.hist.percentile(0.50)
     << ",\"p90\":" << h.hist.percentile(0.90)
     << ",\"p99\":" << h.hist.percentile(0.99)
     << ",\"p999\":" << h.hist.percentile(0.999) << ",\"max\":" << h.hist.max()
     << "}";
}

}  // namespace

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

namespace {
CalibrationBase g_base{ticks(), now_ns()};
}  // namespace

double Registry::ns_per_tick_locked() const {
  if (kTicksAreNanoseconds) return 1.0;
  const std::uint64_t t = ticks();
  const std::uint64_t n = now_ns();
  if (t <= g_base.ticks0 || n <= g_base.ns0) return 1.0;
  return static_cast<double>(n - g_base.ns0) /
         static_cast<double>(t - g_base.ticks0);
}

std::uint32_t Registry::intern_counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (std::uint32_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return i;
  }
  RS_REQUIRE(counter_names_.size() < detail::kMaxCounters,
             "telemetry: counter slots exhausted");
  counter_names_.emplace_back(name);
  return static_cast<std::uint32_t>(counter_names_.size() - 1);
}

std::uint32_t Registry::intern_gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (std::uint32_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) return i;
  }
  RS_REQUIRE(gauge_names_.size() < detail::kMaxGauges,
             "telemetry: gauge slots exhausted");
  gauge_names_.emplace_back(name);
  return static_cast<std::uint32_t>(gauge_names_.size() - 1);
}

std::uint32_t Registry::intern_histogram(std::string_view name, Unit unit) {
  std::lock_guard lock(mutex_);
  for (std::uint32_t i = 0; i < histogram_names_.size(); ++i) {
    if (histogram_names_[i].first == name) {
      RS_REQUIRE(histogram_names_[i].second == unit,
                 "telemetry: histogram re-interned with a different unit");
      return i;
    }
  }
  RS_REQUIRE(histogram_names_.size() < detail::kMaxHistograms,
             "telemetry: histogram slots exhausted");
  histogram_names_.emplace_back(std::string(name), unit);
  return static_cast<std::uint32_t>(histogram_names_.size() - 1);
}

void Registry::enable(const TelemetryOptions& options) {
  if (options.enabled || options.trace) {
    detail::g_metrics_on.store(true, std::memory_order_relaxed);
  }
  if (options.trace) {
    detail::g_trace_on.store(true, std::memory_order_relaxed);
  }
}

void enable(const TelemetryOptions& options) {
  Registry::global().enable(options);
}

detail::ThreadShard* Registry::register_shard() {
  auto* shard = new detail::ThreadShard();
  std::lock_guard lock(mutex_);
  shard->tid = next_tid_++;
  shards_.push_back(shard);
  return shard;
}

void Registry::retire_shard(detail::ThreadShard* shard) {
  std::lock_guard lock(mutex_);
  for (std::uint32_t i = 0; i < detail::kMaxCounters; ++i) {
    retired_.counters[i] += shard->counters[i].load(std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < detail::kMaxGauges; ++i) {
    retired_.gauges[i] += shard->gauges[i].load(std::memory_order_relaxed);
  }
  if (retired_.hists.size() < histogram_names_.size()) {
    retired_.hists.resize(histogram_names_.size());
  }
  for (std::uint32_t i = 0; i < detail::kMaxHistograms; ++i) {
    const detail::HistShard* h = shard->hists[i].load(std::memory_order_relaxed);
    if (h == nullptr) continue;
    if (i >= retired_.hists.size()) retired_.hists.resize(i + 1);
    if (retired_.hists[i] == nullptr) {
      retired_.hists[i] = std::make_unique<LatencyHistogram>();
    }
    for (std::uint32_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      const std::uint64_t count = h->buckets[b].load(std::memory_order_relaxed);
      if (count != 0) retired_.hists[i]->add_bucket(b, count);
    }
  }
  for (const TraceEvent& event : shard->ring.drain()) {
    retired_events_.push_back(RetiredEvent{event, shard->tid});
  }
  if (retired_events_.size() > kRetiredEventCap) {
    retired_events_.erase(
        retired_events_.begin(),
        retired_events_.begin() +
            static_cast<std::ptrdiff_t>(retired_events_.size() -
                                        kRetiredEventCap));
  }
  shards_.erase(std::remove(shards_.begin(), shards_.end(), shard),
                shards_.end());
  delete shard;
}

Registry::Snapshot Registry::snapshot() {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.ns_per_tick = ns_per_tick_locked();

  std::array<std::uint64_t, detail::kMaxCounters> counters = retired_.counters;
  std::array<std::int64_t, detail::kMaxGauges> gauges = retired_.gauges;
  std::vector<LatencyHistogram> raw_hists(histogram_names_.size());
  for (std::uint32_t i = 0; i < retired_.hists.size(); ++i) {
    if (i < raw_hists.size() && retired_.hists[i] != nullptr) {
      raw_hists[i].merge(*retired_.hists[i]);
    }
  }
  for (const detail::ThreadShard* shard : shards_) {
    for (std::uint32_t i = 0; i < detail::kMaxCounters; ++i) {
      counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < detail::kMaxGauges; ++i) {
      gauges[i] += shard->gauges[i].load(std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0;
         i < raw_hists.size() && i < detail::kMaxHistograms; ++i) {
      const detail::HistShard* h =
          shard->hists[i].load(std::memory_order_acquire);
      if (h == nullptr) continue;
      for (std::uint32_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const std::uint64_t count =
            h->buckets[b].load(std::memory_order_relaxed);
        if (count != 0) raw_hists[i].add_bucket(b, count);
      }
    }
  }

  for (std::uint32_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.emplace_back(counter_names_[i], counters[i]);
  }
  for (std::uint32_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.emplace_back(gauge_names_[i], gauges[i]);
  }
  for (std::uint32_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramSnapshot hs;
    hs.name = histogram_names_[i].first;
    hs.unit = histogram_names_[i].second;
    if (hs.unit == Unit::kTicks && !kTicksAreNanoseconds) {
      // Re-bucket from the tick domain into nanoseconds. Count-preserving;
      // adds one more midpoint rounding (≤0.8%) on top of the recording
      // rounding — still inside the ≤3% documented bound (histogram.hpp).
      for (std::uint32_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const std::uint64_t count = raw_hists[i].buckets()[b];
        if (count == 0) continue;
        const auto ns = static_cast<std::uint64_t>(
            static_cast<double>(LatencyHistogram::bucket_mid(b)) *
            snap.ns_per_tick);
        hs.hist.record_n(ns, count);
      }
    } else {
      hs.hist = raw_hists[i];
    }
    // Exemplars: one latest-wins slot per octave, converted to the same
    // domain as the snapshot histogram (ns for kTicks).
    for (std::uint32_t octave = 0; octave < detail::kOctaves; ++octave) {
      Exemplar ex;
      if (!detail::read_exemplar(i, octave, ex.value, ex.trace_id, ex.csn)) {
        continue;
      }
      if (hs.unit == Unit::kTicks && !kTicksAreNanoseconds) {
        ex.value = static_cast<std::uint64_t>(static_cast<double>(ex.value) *
                                              snap.ns_per_tick);
      }
      hs.exemplars.push_back(ex);
    }
    std::sort(hs.exemplars.begin(), hs.exemplars.end(),
              [](const Exemplar& a, const Exemplar& b) {
                return a.value < b.value;
              });
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void Registry::write_snapshot_json(std::ostream& os) {
  const Snapshot snap = snapshot();
  os << "{\n  \"ns_per_tick\": " << snap.ns_per_tick << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(os, snap.counters[i].first);
    os << ": " << snap.counters[i].second;
  }
  os << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(os, snap.gauges[i].first);
    os << ": " << snap.gauges[i].second;
  }
  os << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_histogram_json(os, snap.histograms[i]);
  }
  os << "\n  }\n}\n";
}

std::string Registry::snapshot_json() {
  std::ostringstream os;
  write_snapshot_json(os);
  return os.str();
}

void Registry::write_trace_json(std::ostream& os) {
  std::vector<RetiredEvent> events;
  double ns_per_tick = 1.0;
  {
    std::lock_guard lock(mutex_);
    ns_per_tick = ns_per_tick_locked();
    events = retired_events_;
    for (const detail::ThreadShard* shard : shards_) {
      for (const TraceEvent& event : shard->ring.drain()) {
        events.push_back(RetiredEvent{event, shard->tid});
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const RetiredEvent& a, const RetiredEvent& b) {
              return a.event.ts_ticks < b.event.ts_ticks;
            });
  // Timestamps relative to the calibration base, in microseconds (the
  // chrome://tracing unit). Signed diff: an instant fired during registry
  // bring-up can predate the base by a few ticks.
  const auto to_us = [ns_per_tick](std::uint64_t ticks_value) {
    const double dt = static_cast<double>(
        static_cast<std::int64_t>(ticks_value - g_base.ticks0));
    return dt * ns_per_tick / 1000.0;
  };
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const RetiredEvent& re : events) {
    if (re.event.name == nullptr) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":";
    write_json_string(os, re.event.name);
    os << ",\"ph\":\"" << re.event.phase << "\",\"ts\":" << to_us(re.event.ts_ticks);
    if (re.event.phase == 'X') {
      os << ",\"dur\":"
         << static_cast<double>(re.event.dur_ticks) * ns_per_tick / 1000.0;
    } else if (re.event.phase == 'i') {
      os << ",\"s\":\"t\"";
    }
    // Span id + CSN cross-link the Prometheus exemplars: an exposition
    // line's `# {trace_id="N",csn="C"}` resolves to the event with
    // args.trace_id == N (tools/trace_summarize.py --resolve).
    if (re.event.id != 0 || re.event.csn != 0) {
      os << ",\"args\":{\"trace_id\":" << re.event.id
         << ",\"csn\":" << re.event.csn << "}";
    }
    os << ",\"pid\":1,\"tid\":" << re.tid << "}";
  }
  os << "\n]}\n";
}

std::string Registry::trace_json() {
  std::ostringstream os;
  write_trace_json(os);
  return os.str();
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (detail::ThreadShard* shard : shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : shard->gauges) g.store(0, std::memory_order_relaxed);
    for (auto& slot : shard->hists) {
      detail::HistShard* h = slot.load(std::memory_order_relaxed);
      if (h == nullptr) continue;
      for (auto& b : h->buckets) b.store(0, std::memory_order_relaxed);
    }
    shard->ring.clear();
  }
  retired_ = Retired{};
  retired_events_.clear();
  detail::clear_exemplars();
}

}  // namespace reasched::telemetry
