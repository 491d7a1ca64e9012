// Background telemetry scraper (DESIGN.md §12): a thread that snapshots
// the registry on a fixed cadence (Options::interval_ms) and computes
// *delta-since-last-scrape* — counter deltas and rates, the gauge values,
// and per-interval histograms — against the retained previous snapshot.
// The cumulative registry answers "how much ever"; the scraper answers
// the operator's question, "how much per second, now".
//
// Record-path discipline: the scraper only ever calls Registry::snapshot()
// (merge under the registry mutex, which record sites never take) from its
// own thread. Record sites cannot observe whether a scraper exists —
// bench_e18's "scrape" mode prices this claim at a 100 ms cadence against
// the 1.05x CI ceiling.
//
// Each scrape also refreshes a cached Prometheus exposition
// (telemetry/prometheus.hpp) and, when configured:
//
//   * appends the delta as one JSON line to a rotating metrics file
//     (`out_path`, renamed to `out_path.1..keep_files` at rotate_bytes);
//   * serves the latest exposition over a minimal blocking HTTP/1.0
//     listener on 127.0.0.1:`port` (`--metrics-port`; port 0 binds an
//     ephemeral port, readable via port()) — enough for `curl` or a
//     Prometheus scrape job, not a web server;
//   * invokes `on_scrape` with the delta (tests and benches).
//
// stop() performs one final scrape, so the sum of all deltas equals the
// cumulative totals exactly (tests/scraper_test.cpp holds this invariant
// against serial ground truth and under concurrent recorders in the TSan
// lane). Construction starts the thread; destruction stops it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/registry.hpp"

namespace reasched::telemetry {

/// What changed between two consecutive scrapes, plus the cumulative
/// values the collector would export.
struct DeltaSnapshot {
  std::uint64_t sequence = 0;  // scrape ordinal, 1-based
  double interval_s = 0.0;     // wall seconds since the previous scrape
  double wall_s = 0.0;         // unix time of this scrape

  struct CounterDelta {
    std::string name;
    std::uint64_t total = 0;  // cumulative
    std::uint64_t delta = 0;  // since previous scrape
    double per_s = 0.0;       // delta / interval_s
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;  // gauges are levels: the delta IS the value
  };
  struct HistogramDelta {
    std::string name;
    Registry::Unit unit = Registry::Unit::kCount;
    std::uint64_t total_count = 0;       // cumulative samples
    LatencyHistogram interval;           // samples landed this interval
  };
  std::vector<CounterDelta> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramDelta> histograms;
};

/// Bucket-wise difference cur - prev. Exact for Unit::kCount histograms;
/// Unit::kTicks buckets clamp negative differences to zero (the tick→ns
/// calibration can shift a boundary bucket between two scrapes).
[[nodiscard]] DeltaSnapshot delta_since(const Registry::Snapshot& prev,
                                        const Registry::Snapshot& cur,
                                        double interval_s);

class Scraper {
 public:
  struct Options {
    /// Scrape cadence. Clamped to >= 1.
    std::uint32_t interval_ms = 1000;
    /// Rotating delta-JSONL file ("" = none). The active file is always
    /// `out_path`; on overflow it renames to `out_path.1` (older files
    /// shift up, `out_path.keep_files` is deleted).
    std::string out_path;
    std::uint64_t rotate_bytes = 1u << 20;
    std::uint32_t keep_files = 4;
    /// -1 = no listener; 0 = bind an ephemeral 127.0.0.1 port (port());
    /// >0 = bind that port.
    int port = -1;
    /// Start without scraping; resume() arms the cadence. For benches that
    /// price the scraper only inside measured segments.
    bool start_paused = false;
    /// Called after every scrape (including the final one in stop()), on
    /// the scraper thread (or the stop() caller for the final scrape).
    std::function<void(const DeltaSnapshot&)> on_scrape;
  };

  explicit Scraper(Options options);
  ~Scraper();

  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  /// Final scrape, then joins the scraper (and listener) threads.
  /// Idempotent.
  void stop();

  /// Pause/resume the cadence (scrape_now() still works while paused).
  void set_paused(bool paused);

  /// One synchronous scrape on the caller's thread.
  void scrape_now();

  [[nodiscard]] std::uint64_t scrapes() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }
  /// Bound listener port (0 when no listener / bind failed).
  [[nodiscard]] int port() const noexcept { return port_; }
  /// Latest cached exposition ("" before the first scrape).
  [[nodiscard]] std::string exposition() const;
  [[nodiscard]] DeltaSnapshot last_delta() const;

 private:
  void scrape();
  void run();
  void serve();
  void rotate_if_needed();

  Options options_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> paused_{false};
  std::atomic<std::uint64_t> scrapes_{0};

  mutable std::mutex mutex_;  // prev_, exposition_, last_delta_, file state
  Registry::Snapshot prev_;
  bool have_prev_ = false;
  std::uint64_t prev_ns_ = 0;  // steady time of the previous scrape
  std::string exposition_;
  DeltaSnapshot last_delta_;
  std::uint64_t out_bytes_ = 0;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread listener_;
  std::thread thread_;
};

}  // namespace reasched::telemetry
