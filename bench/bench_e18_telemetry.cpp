// E18 — telemetry overhead: what the observability tier (src/telemetry/,
// DESIGN.md §10) costs on the E12 hot path, priced with E17's interleaved
// median-ratio protocol so the gated number is an in-binary ratio, not an
// absolute (EXPERIMENTS.md §E18).
//
// Modes are the telemetry tier's runtime gates, flipped per timed segment
// on otherwise-identical schedulers serving the same churn trace: "off"
// (gates down — one relaxed atomic load per record site), "on" (metric
// recording), "trace" (metrics + span events into the per-thread rings),
// and "scrape" (metrics + a live background Scraper at a 100 ms cadence —
// the serving-grade posture of DESIGN.md §12).
// `telemetry_overhead_ratio` = off ops/sec over mode ops/sec; the CI gate
// (tools/bench_compare.py) fails the "on" and "scrape" rows above 1.05 —
// the acceptance bar of >= 0.95x the off throughput.
//
// A second section prices the scrape path: Registry::snapshot() (merge all
// shards), snapshot_json(), and trace_json() (ring drain + sort), per call.
// Scrapes are rare (one per monitoring interval), so these are recorded,
// not gated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace reasched::bench {
namespace {

// Rep 0 samples per-request latency (two steady_clock reads per request —
// ~55 ns of constant+jitter that would corrupt a ratio) and is excluded
// from the ratio median; the remaining kChurnReps reps time the bare serve
// loop. Odd count so the median is a real rep.
constexpr std::size_t kChurnReps = 7;
// Whole-experiment repeats with freshly allocated schedulers; per-rep
// ratios pool across trials (see the instance-bias note in run()).
constexpr std::size_t kTrials = 5;

struct ChurnRun {
  double seconds = 0;
  std::uint64_t requests = 0;
  double ops_per_sec = 0;
};

struct ModeRun {
  const char* mode;
  bool metrics = false;   // runtime metric gate during this mode's segments
  bool trace = false;     // runtime trace gate during this mode's segments
  bool scrape = false;    // background Scraper live during this mode's segments
  std::unique_ptr<ReservationScheduler> scheduler;
  std::size_t cursor = 0;
  std::vector<ChurnRun> reps;
  ChurnRun best;
  telemetry::LatencyHistogram latency;
};

std::vector<Request> trace_for(std::size_t n, std::size_t churn) {
  ChurnParams params;
  params.seed = 1818 + n;
  params.target_active = n;
  params.requests = n + churn;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = WindowPlacement::kUniform;
  return make_churn_trace(params);
}

SchedulerOptions scheduler_options() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  return options;
}

void serve_one(IReallocScheduler& scheduler, const Request& r) {
  if (r.kind == RequestKind::kInsert) {
    try {
      scheduler.insert(r.job, r.window);
    } catch (const InfeasibleError&) {
    }
  } else {
    scheduler.erase(r.job);
  }
}

void set_gates(const ModeRun& m, telemetry::Scraper* scraper) {
  telemetry::Registry::set_metrics_enabled(m.metrics);
  telemetry::Registry::set_trace_enabled(m.trace);
  // The scraper thread exists for the whole trial; only "scrape" segments
  // let its cadence fire, so each mode prices exactly its own posture.
  if (scraper != nullptr) scraper->set_paused(!m.scrape);
}

/// E17's protocol: every mode serves the same trace through its own
/// scheduler, timed segments alternating mode-by-mode so adjacent segments
/// see the same machine and the per-rep ratio divides machine drift out.
/// The only difference here is that the mode IS a pair of process-global
/// switches, flipped around each segment. Two refinements over E17, both
/// because the effect being priced (~50 ns a request) is an order smaller
/// than E17's WAL costs: the serve loop carries no per-request clock reads
/// (latency is sampled in a dedicated untimed rep), and the mode order
/// rotates each rep so slow frequency drift cannot systematically favor
/// whichever mode runs first.
void timed_churn_interleaved(std::vector<ModeRun>& modes,
                             const std::vector<Request>& trace, std::size_t warmup,
                             telemetry::Scraper* scraper) {
  for (ModeRun& m : modes) {
    set_gates(m, scraper);  // warm under the mode's own gates: identical code paths
    for (; m.cursor < warmup && m.cursor < trace.size(); ++m.cursor) {
      serve_one(*m.scheduler, trace[m.cursor]);
    }
  }
  const std::size_t per_rep = (trace.size() - warmup) / (kChurnReps + 1);
  // Latency rep: feeds the --json latency block, never a ratio.
  for (ModeRun& m : modes) {
    set_gates(m, scraper);
    const std::size_t stop = m.cursor + per_rep;
    for (; m.cursor < stop && m.cursor < trace.size(); ++m.cursor) {
      const std::uint64_t serve_start = telemetry::now_ns();
      serve_one(*m.scheduler, trace[m.cursor]);
      m.latency.record(telemetry::now_ns() - serve_start);
    }
  }
  for (std::size_t rep = 0; rep < kChurnReps; ++rep) {
    for (std::size_t slot = 0; slot < modes.size(); ++slot) {
      ModeRun& m = modes[(rep + slot) % modes.size()];
      set_gates(m, scraper);
      ChurnRun run;
      const std::size_t stop =
          rep + 1 == kChurnReps ? trace.size() : m.cursor + per_rep;
      const auto start = std::chrono::steady_clock::now();
      for (; m.cursor < stop; ++m.cursor) {
        serve_one(*m.scheduler, trace[m.cursor]);
        ++run.requests;
      }
      run.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      run.ops_per_sec =
          run.seconds > 0 ? static_cast<double>(run.requests) / run.seconds : 0;
      m.reps.push_back(run);
      if (run.ops_per_sec > m.best.ops_per_sec) m.best = run;
    }
  }
  telemetry::Registry::set_metrics_enabled(false);
  telemetry::Registry::set_trace_enabled(false);
  if (scraper != nullptr) scraper->set_paused(true);
}

/// Append this trial's per-rep ratios baseline/mode (see bench_e17).
void collect_ratios(const ModeRun& baseline, const ModeRun& mode,
                    std::vector<double>& out) {
  for (std::size_t r = 0; r < baseline.reps.size() && r < mode.reps.size(); ++r) {
    if (mode.reps[r].ops_per_sec > 0 && baseline.reps[r].ops_per_sec > 0) {
      out.push_back(baseline.reps[r].ops_per_sec / mode.reps[r].ops_per_sec);
    }
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{1'000, 10'000}
                 : std::vector<std::size_t>{1'000, 10'000, 100'000};
  // kChurnReps timed segments + the latency rep. Quick segments still need
  // enough requests that the per-rep ratio is dominated by the record
  // sites, not timer/jitter noise (~3k requests per segment ≈ 3-5 ms).
  const std::size_t churn = args.quick ? 24'000 : 80'000;

  Table table("E18 telemetry overhead (runtime gates, interleaved ratio)");
  table.set_header({"case", "n", "mode", "requests", "seconds", "ops/sec", "ratio"});
  JsonRows json("e18_telemetry");

  telemetry::Registry::global().reset();

  struct Spec {
    const char* mode;
    bool metrics;
    bool trace;
    bool scrape;
  };
  std::vector<Spec> specs;
  specs.push_back({"off", false, false, false});
  specs.push_back({"on", true, false, false});
  specs.push_back({"trace", true, true, false});
  specs.push_back({"scrape", true, false, true});

  for (const std::size_t n : sizes) {
    const std::vector<Request> trace = trace_for(n, churn);
    // A mode's scheduler instance carries its own heap placement and cache
    // conflict pattern — a per-instance bias the interleaving cannot divide
    // out. Re-rolling fresh instances each trial and pooling the per-rep
    // ratios turns that bias into noise the median absorbs.
    std::vector<std::vector<double>> ratios(specs.size());
    std::vector<ChurnRun> best(specs.size());
    std::vector<telemetry::LatencyHistogram> latency(specs.size());
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      std::vector<ModeRun> modes;
      for (const Spec& spec : specs) {
        modes.push_back({spec.mode, spec.metrics, spec.trace, spec.scrape,
                         std::make_unique<ReservationScheduler>(scheduler_options()),
                         0, {}, {}, {}});
      }
      // One scraper per trial, paused except inside "scrape" segments — the
      // 100 ms cadence matches the E20 serving-grade protocol.
      telemetry::Scraper::Options scrape_options;
      scrape_options.interval_ms = 100;
      scrape_options.start_paused = true;
      telemetry::Scraper scraper(std::move(scrape_options));
      timed_churn_interleaved(modes, trace, n, &scraper);
      scraper.stop();
      for (std::size_t i = 0; i < modes.size(); ++i) {
        collect_ratios(modes[0], modes[i], ratios[i]);
        if (modes[i].best.ops_per_sec > best[i].ops_per_sec) best[i] = modes[i].best;
        latency[i].merge(modes[i].latency);
      }
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double ratio = median(ratios[i]);
      char seconds[32], ops[32], ratio_str[32];
      std::snprintf(seconds, sizeof(seconds), "%.3f", best[i].seconds);
      std::snprintf(ops, sizeof(ops), "%.0f", best[i].ops_per_sec);
      std::snprintf(ratio_str, sizeof(ratio_str), "%.3fx", ratio);
      table.add_row({"churn", std::to_string(n), specs[i].mode,
                     std::to_string(best[i].requests), seconds, ops, ratio_str});
      auto& row = json.row()
                      .field("case", "churn")
                      .field("n", n)
                      .field("mode", specs[i].mode)
                      .field("compiled", bool(RS_TELEM_COMPILED))
                      .field("requests", best[i].requests)
                      .field("seconds", best[i].seconds)
                      .field("ops_per_sec", best[i].ops_per_sec);
      // The regression gate reads telemetry_overhead_ratio (the always-on
      // cost); the trace tier times every span by design and is priced
      // under its own ungated name.
      if (std::string(specs[i].mode) == "trace") {
        row.field("trace_overhead_ratio", ratio);
      } else if (i != 0) {
        row.field("telemetry_overhead_ratio", ratio);
      }
      latency_fields(row, latency[i]);
    }

    // ---- scrape + drain cost (per call; rare-path, recorded not gated) ----
    telemetry::Registry::set_metrics_enabled(true);
    constexpr int kScrapes = 50;
    const auto scrape_start = std::chrono::steady_clock::now();
    std::size_t histograms = 0;
    for (int i = 0; i < kScrapes; ++i) {
      histograms = telemetry::Registry::global().snapshot().histograms.size();
    }
    const double scrape_us =
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                  scrape_start)
            .count() /
        kScrapes;
    const auto json_start = std::chrono::steady_clock::now();
    const std::string snapshot_json = telemetry::Registry::global().snapshot_json();
    const double json_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - json_start)
                               .count();
    const auto drain_start = std::chrono::steady_clock::now();
    const std::string trace_json = telemetry::Registry::global().trace_json();
    const double drain_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - drain_start)
                                .count();
    telemetry::Registry::set_metrics_enabled(false);

    char scrape_str[32], jsonc[32], drain[32];
    std::snprintf(scrape_str, sizeof(scrape_str), "%.1f us", scrape_us);
    std::snprintf(jsonc, sizeof(jsonc), "%.1f us", json_us);
    std::snprintf(drain, sizeof(drain), "%.1f us", drain_us);
    table.add_row({"scrape", std::to_string(n), "snapshot",
                   std::to_string(histograms) + " hists", scrape_str, "-", "-"});
    table.add_row({"scrape", std::to_string(n), "snapshot_json",
                   std::to_string(snapshot_json.size()) + " B", jsonc, "-", "-"});
    table.add_row({"scrape", std::to_string(n), "trace_json",
                   std::to_string(trace_json.size()) + " B", drain, "-", "-"});
    json.row()
        .field("case", "scrape")
        .field("n", n)
        .field("mode", "snapshot")
        .field("compiled", bool(RS_TELEM_COMPILED))
        .field("scrape_us", scrape_us)
        .field("snapshot_json_us", json_us)
        .field("snapshot_json_bytes", snapshot_json.size())
        .field("trace_drain_us", drain_us)
        .field("trace_json_bytes", trace_json.size());

    // Fresh registry state per size so scrape cost reflects the shards the
    // size's own run created, not an accumulation.
    telemetry::Registry::global().reset();
  }

  emit(table, args);
  json.emit(args, "BENCH_telemetry.json");
  return 0;
}

}  // namespace
}  // namespace reasched::bench

int main(int argc, char** argv) { return reasched::bench::run(argc, argv); }
