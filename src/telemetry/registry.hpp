// Process-wide telemetry registry: named counters, gauges, log-bucketed
// latency histograms, and per-thread trace rings (DESIGN.md §10).
//
// Design constraints, in order:
//
//  1. The record path must be cheap enough to leave on in production: one
//     relaxed flag load + branch when disabled, and when enabled a
//     thread-local shard lookup plus one relaxed fetch_add — no locks, no
//     allocation, no cache-line shared between recording threads. The
//     ShardedScheduler's workers each write their own shard; merging
//     happens on scrape, which is the rare path.
//  2. Timestamps come from telemetry::ticks() — the TSC on x86 (~7 ns a
//     read, an order cheaper than clock_gettime). Durations are recorded
//     in raw ticks; the scrape converts to nanoseconds with a calibration
//     measured against steady_clock over the process lifetime, re-bucketing
//     each histogram (error budget in histogram.hpp).
//  3. One gate, at runtime: the TelemetryOptions knob — threaded through
//     SchedulerOptions, ShardedScheduler::Options, and SimOptions — flips
//     the process-wide enable flags via telemetry::enable(). There is one
//     build: the record sites are always compiled in, and a gated-off site
//     costs one relaxed load + branch (bench_e18 prices it).
//
// Metric handles (Counter/Gauge/Histogram) are interned by name at
// construction — idempotent, so the same name in insert() and erase()
// shares one metric. Declare them as function-local statics through the
// RS_TELEM_* macros so registration runs once per site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "telemetry/histogram.hpp"
#include "telemetry/options.hpp"
#include "telemetry/trace_ring.hpp"

namespace reasched::telemetry {

// ------------------------------------------------------------------ clock --

/// Monotonic wall clock in nanoseconds (steady_clock).
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__) || defined(__i386__)
/// Raw timestamp counter. Invariant/constant-rate on every x86-64 this
/// repo targets; converted to ns at scrape via runtime calibration.
[[nodiscard]] inline std::uint64_t ticks() noexcept { return __rdtsc(); }
inline constexpr bool kTicksAreNanoseconds = false;
#else
[[nodiscard]] inline std::uint64_t ticks() noexcept { return now_ns(); }
inline constexpr bool kTicksAreNanoseconds = true;
#endif

// ---------------------------------------------------------- runtime gates --

namespace detail {

inline std::atomic<bool> g_metrics_on{false};
inline std::atomic<bool> g_trace_on{false};

[[nodiscard]] inline bool metrics_on() noexcept {
  return g_metrics_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool trace_on() noexcept {
  return g_trace_on.load(std::memory_order_relaxed);
}

inline constexpr std::uint32_t kMaxCounters = 64;
inline constexpr std::uint32_t kMaxGauges = 64;
inline constexpr std::uint32_t kMaxHistograms = 48;

// ------------------------------------------------------------- exemplars --
//
// When tracing is on, tail-bucket records capture the *exemplar context* of
// the recording thread — the innermost live span's id and the WAL CSN (or
// ingest ticket) the caller last declared via RS_TELEM_SET_CSN — into a
// per-(histogram, octave) latest-wins slot. The Prometheus exposition
// attaches these as OpenMetrics exemplars, so a p99.9 `_bucket` line
// resolves to the exact chrome-trace span and durable CSN that produced it.
// Capture is gated on trace_on AND value >= kExemplarMinValue: the metrics-
// only tier pays one compare (almost always false) per histogram record and
// never touches the shared slots.

/// One exemplar octave per power of two of the recorded value; slots below
/// this value never fill ("top octaves" only — the tail is what exemplars
/// are for, and the fast-path buckets would thrash the shared slots).
inline constexpr std::uint64_t kExemplarMinValue = std::uint64_t{1} << 19;
inline constexpr std::uint32_t kOctaves =
    LatencyHistogram::kBuckets / LatencyHistogram::kSub;

struct ExemplarContext {
  std::uint64_t trace_id = 0;  // innermost live span id on this thread
  std::uint64_t csn = 0;       // WAL CSN / ingest ticket declared by caller
};
inline thread_local ExemplarContext t_exemplar;

inline std::atomic<std::uint64_t> g_next_span_id{1};
[[nodiscard]] inline std::uint64_t next_span_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

/// Latest-wins publish of (value, t_exemplar) into the slot for
/// (histogram, octave-of-bucket). Lock-free; losers of the claim race skip.
void capture_exemplar(std::uint32_t hist_id, std::uint32_t bucket,
                      std::uint64_t value) noexcept;
void clear_exemplars() noexcept;

/// Per-(thread, histogram) bucket array. Allocated lazily on the first
/// record so threads only pay for histograms they actually touch.
struct HistShard {
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets> buckets{};

  void record(std::uint64_t value) noexcept {
    buckets[LatencyHistogram::bucket_of(value)].fetch_add(
        1, std::memory_order_relaxed);
  }
};

/// Per-thread TraceRing capacity in events.
inline constexpr std::uint32_t kTraceRingCapacity = 8192;

/// One recording thread's slice of every metric. Written only by the
/// owning thread (relaxed atomics so the scrape thread may read
/// concurrently); listed in the registry until the thread exits, at which
/// point its values fold into the retired accumulator.
struct ThreadShard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges{};
  std::array<std::atomic<HistShard*>, kMaxHistograms> hists{};
  TraceRing ring{kTraceRingCapacity};
  std::uint32_t tid = 0;

  ~ThreadShard() {
    for (auto& hist : hists) delete hist.load(std::memory_order_relaxed);
  }
};

extern thread_local ThreadShard* t_shard;
[[nodiscard]] ThreadShard* ensure_shard();  // registers with the registry
[[nodiscard]] inline ThreadShard& shard() {
  ThreadShard* s = t_shard;
  return s != nullptr ? *s : *ensure_shard();
}

/// Per-thread decimation counter for sampled spans. One counter serves
/// every sampled site on the thread; sites interleave through it, which
/// only de-phases their sample streams — each site still records 1 in
/// mask+1 of its own hits.
inline thread_local std::uint32_t t_sample = 0;
[[nodiscard]] inline bool sample_due(std::uint32_t mask) noexcept {
  return (++t_sample & mask) == 0;
}
[[nodiscard]] HistShard* ensure_hist(ThreadShard& shard, std::uint32_t id);
void ring_push(const char* name, std::uint64_t ts_ticks, std::uint64_t dur_ticks,
               char phase, std::uint64_t id = 0, std::uint64_t csn = 0);

}  // namespace detail

/// Declare the WAL commit-sequence-number (or ingest ticket) in scope on
/// this thread: captured into exemplars and span events recorded until the
/// next call. Unconditional thread-local store — cheap enough for the
/// durable hot path; use RS_TELEM_SET_CSN so the OFF flavor compiles it out.
inline void set_current_csn(std::uint64_t csn) noexcept {
  detail::t_exemplar.csn = csn;
}
[[nodiscard]] inline std::uint64_t current_csn() noexcept {
  return detail::t_exemplar.csn;
}
/// Innermost live span's id on this thread (0 outside any traced span).
[[nodiscard]] inline std::uint64_t current_trace_id() noexcept {
  return detail::t_exemplar.trace_id;
}

// --------------------------------------------------------------- registry --

class Registry {
 public:
  enum class Unit : std::uint8_t {
    kCount,  // recorded values are reported as-is
    kTicks,  // recorded values are clock ticks; scrape converts to ns
  };

  static Registry& global();

  // Interning (cold path; called from metric-handle constructors).
  std::uint32_t intern_counter(std::string_view name);
  std::uint32_t intern_gauge(std::string_view name);
  std::uint32_t intern_histogram(std::string_view name, Unit unit);

  /// Turn-on-only runtime gate: enables what `options` asks for and never
  /// disables (so constructing an un-instrumented scheduler next to an
  /// instrumented one cannot silently switch recording off). `trace`
  /// implies `enabled`. Tests/benches use set_*_enabled to switch off.
  void enable(const TelemetryOptions& options);
  static void set_metrics_enabled(bool on) noexcept {
    detail::g_metrics_on.store(on, std::memory_order_relaxed);
    if (!on) detail::g_trace_on.store(false, std::memory_order_relaxed);
  }
  static void set_trace_enabled(bool on) noexcept {
    if (on) detail::g_metrics_on.store(true, std::memory_order_relaxed);
    detail::g_trace_on.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool metrics_enabled() noexcept {
    return detail::metrics_on();
  }
  [[nodiscard]] static bool trace_enabled() noexcept {
    return detail::trace_on();
  }

  /// Tail-bucket exemplar (detail::capture_exemplar): the last traced
  /// record that landed in one of the histogram's top octaves.
  struct Exemplar {
    std::uint64_t value = 0;  // histogram-snapshot domain (ns for kTicks)
    std::uint64_t trace_id = 0;
    std::uint64_t csn = 0;
  };
  struct HistogramSnapshot {
    std::string name;
    Unit unit = Unit::kCount;
    LatencyHistogram hist;  // ns domain for kTicks, raw for kCount
    std::vector<Exemplar> exemplars;  // at most one per octave, value-sorted
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;
    double ns_per_tick = 1.0;
  };

  /// Merge every live shard plus the retired accumulator. Safe to call
  /// while other threads record (relaxed reads — a scrape is a consistent-
  /// enough cut, not a linearization point).
  [[nodiscard]] Snapshot snapshot();
  [[nodiscard]] std::string snapshot_json();
  void write_snapshot_json(std::ostream& os);

  /// OpenMetrics/Prometheus text exposition of a fresh snapshot
  /// (telemetry/prometheus.hpp): `# TYPE`/`# HELP` per family, counters as
  /// `_total`, HDR histograms as cumulative `_bucket{le=...}`/`_sum`/
  /// `_count` with per-octave trace exemplars, terminated by `# EOF`.
  void write_prometheus(std::ostream& os);
  [[nodiscard]] std::string prometheus_text();

  /// chrome://tracing JSON ({"traceEvents": [...]}): every live ring's
  /// events plus events salvaged from exited threads, sorted by time.
  void write_trace_json(std::ostream& os);
  [[nodiscard]] std::string trace_json();

  /// Zero every metric and drop every buffered trace event; interned names
  /// and enable flags are kept. For tests and bench mode boundaries.
  void reset();

  // Internal (detail:: shard lifecycle) — not for direct use.
  detail::ThreadShard* register_shard();
  void retire_shard(detail::ThreadShard* shard);

 private:
  struct Retired {
    std::array<std::uint64_t, detail::kMaxCounters> counters{};
    std::array<std::int64_t, detail::kMaxGauges> gauges{};
    std::vector<std::unique_ptr<LatencyHistogram>> hists;  // raw domain
  };
  struct RetiredEvent {
    TraceEvent event;
    std::uint32_t tid = 0;
  };

  [[nodiscard]] double ns_per_tick_locked() const;

  std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::pair<std::string, Unit>> histogram_names_;
  std::vector<detail::ThreadShard*> shards_;  // live recording threads
  Retired retired_;
  std::vector<RetiredEvent> retired_events_;
  std::uint32_t next_tid_ = 0;
};

/// Process-wide convenience: Registry::global().enable(options).
void enable(const TelemetryOptions& options);

// ---------------------------------------------------------------- handles --

/// Monotonic counter. Copyable 4-byte handle; construction interns.
class Counter {
 public:
  explicit Counter(std::string_view name)
      : id_(Registry::global().intern_counter(name)) {}

  void add(std::uint64_t delta = 1) const noexcept {
    if (!detail::metrics_on()) return;
    detail::shard().counters[id_].fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::uint32_t id_;
};

/// Additive gauge: cross-thread sum of deltas since enable (e.g. +1 on
/// enqueue from the caller thread, -1 on dequeue from the worker).
class Gauge {
 public:
  explicit Gauge(std::string_view name)
      : id_(Registry::global().intern_gauge(name)) {}

  void add(std::int64_t delta) const noexcept {
    if (!detail::metrics_on()) return;
    detail::shard().gauges[id_].fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::uint32_t id_;
};

/// Log-bucketed histogram handle. Unit::kTicks histograms are fed by Span
/// (durations); Unit::kCount histograms by record() with plain values.
class Histogram {
 public:
  Histogram(std::string_view name, Registry::Unit unit)
      : id_(Registry::global().intern_histogram(name, unit)) {}

  void record(std::uint64_t value) const noexcept {
    if (!detail::metrics_on()) return;
    record_unchecked(value);
  }

  /// Record path without the enable check (the caller already branched).
  void record_unchecked(std::uint64_t value) const noexcept {
    detail::ThreadShard& sh = detail::shard();
    detail::HistShard* h = sh.hists[id_].load(std::memory_order_relaxed);
    if (h == nullptr) h = detail::ensure_hist(sh, id_);
    const std::uint32_t bucket = LatencyHistogram::bucket_of(value);
    h->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    // Tail records capture the thread's exemplar context; the value compare
    // is the only cost the metrics tier pays (nearly always false).
    if (value >= detail::kExemplarMinValue && detail::trace_on()) {
      detail::capture_exemplar(id_, bucket, value);
    }
  }

 private:
  std::uint32_t id_;
};

/// RAII span: times the enclosing scope into a Unit::kTicks histogram and,
/// when tracing is on, emits a chrome-trace span event. One ticks() read
/// at each end; nothing at all when metrics are off.
class Span {
 public:
  Span(const Histogram& hist, const char* name) noexcept {
    if (!detail::metrics_on()) return;
    hist_ = &hist;
    name_ = name;
    if (detail::trace_on()) {
      // Claim a process-unique span id and install it as the thread's
      // exemplar context (innermost span wins; nesting restores on exit).
      id_ = detail::next_span_id();
      prev_trace_ = detail::t_exemplar.trace_id;
      detail::t_exemplar.trace_id = id_;
    }
    start_ = ticks();
  }
  ~Span() {
    if (hist_ == nullptr) return;
    const std::uint64_t duration = ticks() - start_;
    hist_->record_unchecked(duration);  // captures id_ via t_exemplar
    if (id_ != 0) detail::t_exemplar.trace_id = prev_trace_;
    if (detail::trace_on()) {
      detail::ring_push(name_, start_, duration, 'X', id_,
                        detail::t_exemplar.csn);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const Histogram* hist_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t prev_trace_ = 0;
};

/// Span that times 1 in (mask+1) hits while only metrics are on, every hit
/// while tracing is on. For request-rate sites where two unconditional
/// ticks() reads (~30 ns virtualized) would alone bust the 0.95x always-on
/// throughput bar (bench_e18): uniform decimation leaves every histogram
/// percentile unbiased — only the recorded count shrinks by the factor
/// (the hit rate comes from an exact counter next to the site). Tracing
/// disables the decimation because a chrome trace with seven of eight
/// spans missing is not a trace.
class SampledSpan {
 public:
  SampledSpan(const Histogram& hist, const char* name,
              std::uint32_t mask) noexcept {
    if (!detail::metrics_on()) return;
    if (detail::trace_on()) {
      id_ = detail::next_span_id();
      prev_trace_ = detail::t_exemplar.trace_id;
      detail::t_exemplar.trace_id = id_;
    } else if (!detail::sample_due(mask)) {
      return;
    }
    hist_ = &hist;
    name_ = name;
    start_ = ticks();
  }
  ~SampledSpan() {
    if (hist_ == nullptr) return;
    const std::uint64_t duration = ticks() - start_;
    hist_->record_unchecked(duration);
    if (id_ != 0) detail::t_exemplar.trace_id = prev_trace_;
    if (detail::trace_on()) {
      detail::ring_push(name_, start_, duration, 'X', id_,
                        detail::t_exemplar.csn);
    }
  }

  SampledSpan(const SampledSpan&) = delete;
  SampledSpan& operator=(const SampledSpan&) = delete;

 private:
  const Histogram* hist_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t prev_trace_ = 0;
};

/// Span that arms only when *tracing* is on. For interior sites that fire
/// on nearly every request (flat-hash drain steps): metrics mode keeps
/// their cheap count histograms but skips the two ticks() reads a duration
/// costs, keeping the always-on record path near the 0.95x throughput bar
/// (bench_e18). With tracing on, the duration histogram and the chrome
/// span both record — the deep-timing tier is priced as part of "trace".
class TraceSpan {
 public:
  TraceSpan(const Histogram& hist, const char* name) noexcept {
    if (!detail::trace_on()) return;
    hist_ = &hist;
    name_ = name;
    id_ = detail::next_span_id();
    prev_trace_ = detail::t_exemplar.trace_id;
    detail::t_exemplar.trace_id = id_;
    start_ = ticks();
  }
  ~TraceSpan() {
    if (hist_ == nullptr) return;
    const std::uint64_t duration = ticks() - start_;
    hist_->record_unchecked(duration);
    detail::t_exemplar.trace_id = prev_trace_;
    detail::ring_push(name_, start_, duration, 'X', id_,
                      detail::t_exemplar.csn);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const Histogram* hist_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t prev_trace_ = 0;
};

}  // namespace reasched::telemetry

// ----------------------------------------------------------------- macros --
//
// All instrumentation goes through these. Handle-declaring macros expand
// to function-local statics so interning runs once per site.
// RS_TELEM_COMPILED is always 1; bench metadata still reports it.

#define RS_TELEM_COMPILED 1
#define RS_TELEM_COUNTER(var, name) \
  static const ::reasched::telemetry::Counter var { name }
#define RS_TELEM_GAUGE(var, name) \
  static const ::reasched::telemetry::Gauge var { name }
#define RS_TELEM_HISTOGRAM(var, name)               \
  static const ::reasched::telemetry::Histogram var \
  { name, ::reasched::telemetry::Registry::Unit::kCount }
#define RS_TELEM_DURATION(var, name)                \
  static const ::reasched::telemetry::Histogram var \
  { name, ::reasched::telemetry::Registry::Unit::kTicks }
#define RS_TELEM_ADD(handle, delta) (handle).add(delta)
#define RS_TELEM_RECORD(handle, value) (handle).record(value)
#define RS_TELEM_GAUGE_ADD(handle, delta) (handle).add(delta)
#define RS_TELEM_SPAN(var, handle, name) \
  const ::reasched::telemetry::Span var { (handle), name }
#define RS_TELEM_TRACE_SPAN(var, handle, name) \
  const ::reasched::telemetry::TraceSpan var { (handle), name }
#define RS_TELEM_SAMPLED_SPAN(var, handle, name, mask) \
  const ::reasched::telemetry::SampledSpan var { (handle), name, (mask) }
#define RS_TELEM_SET_CSN(csn) ::reasched::telemetry::set_current_csn(csn)
#define RS_TELEM_INSTANT(name)                                           \
  do {                                                                   \
    if (::reasched::telemetry::detail::trace_on()) {                     \
      ::reasched::telemetry::detail::ring_push(                          \
          name, ::reasched::telemetry::ticks(), 0, 'i');                 \
    }                                                                    \
  } while (0)
