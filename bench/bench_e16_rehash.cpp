// E16 — flat-hash growth latency: per-request wall-clock latency of the
// single-machine ReservationScheduler across hash-table doubling
// boundaries under the incremental two-table rehash. After PR 3 removed
// the n*-rebuild cliff, the worst per-request latency at n = 10⁵ (~9 ms)
// was the occupancy/job-table rehash when the map doubled — the same
// shape of cliff the paper amortizes away, now spread across requests by
// util/flat_hash.hpp's two-table migration (DESIGN.md §8, EXPERIMENTS.md
// §E16).
//
// Trace shape: an insert ramp to n (crossing every table-doubling
// boundary), then steady churn at n (tombstone accumulation). Trimming is
// disabled so the rebuild machinery stays quiet and the measured cliffs
// are exactly the hash tier's.
//
// Each row also records the max-latency *trajectory* — the per-chunk
// maximum across kChunks equal slices of the run — so the cliff shape
// itself (a spike per doubling would show; a flat line is the goal) is
// visible in BENCH_rehash.json, not just the global max.
//
// Max latency is an extreme statistic, and shared hosts inject occasional
// multi-ms scheduling/page-fault stalls at arbitrary requests. Each size
// therefore runs kTrials times over the IDENTICAL trace and combines the
// trajectories element-wise by minimum: a deterministic cliff (a rehash
// fires at the same table size, hence the same chunk, every trial)
// survives the min, while a noise stall would have to hit the same chunk
// in every trial to survive. The reported max_ms is the maximum of that
// combined trajectory — an estimator of the *deterministic* worst case,
// which is exactly what the CI regression gate needs to be stable on.
// Percentile fields come from the trial with the smallest raw max.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

namespace reasched::bench {
namespace {

constexpr std::size_t kChunks = 32;
constexpr int kTrials = 5;
constexpr int kTrialsQuick = 3;

struct LatencyResult {
  double seconds = 0;
  std::uint64_t requests = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_ms = 0;
  std::vector<double> chunk_max_us;  // max latency per run slice
};

std::vector<Request> trace_for(std::size_t n) {
  ChurnParams params;
  params.seed = 1870 + n;
  params.target_active = n;
  params.requests = n + n / 2;  // ramp + churn
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = WindowPlacement::kUniform;
  return make_churn_trace(params);
}

LatencyResult run_single(const std::vector<Request>& trace) {
  using Clock = std::chrono::steady_clock;
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.trimming = false;  // no n*-rebuilds: isolate the hash-tier cliffs
  ReservationScheduler scheduler(options);

  std::vector<double> lat;
  lat.reserve(trace.size());
  const auto wall_start = Clock::now();
  for (const Request& request : trace) {
    const auto start = Clock::now();
    if (request.kind == RequestKind::kInsert) {
      scheduler.insert(request.job, request.window);
    } else {
      scheduler.erase(request.job);
    }
    const auto stop = Clock::now();
    lat.push_back(std::chrono::duration<double, std::micro>(stop - start).count());
  }

  LatencyResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - wall_start).count();
  result.requests = lat.size();
  result.chunk_max_us.assign(kChunks, 0.0);
  for (std::size_t i = 0; i < lat.size(); ++i) {
    double& chunk = result.chunk_max_us[i * kChunks / lat.size()];
    chunk = std::max(chunk, lat[i]);
  }
  std::sort(lat.begin(), lat.end());
  const auto pct = [&](double p) {
    return lat[static_cast<std::size_t>(p * static_cast<double>(lat.size() - 1))];
  };
  result.p50_us = pct(0.50);
  result.p90_us = pct(0.90);
  result.p99_us = pct(0.99);
  result.p999_us = pct(0.999);
  result.max_ms = lat.back() / 1000.0;
  return result;
}

LatencyResult run_trials(const std::vector<Request>& trace, int trials) {
  LatencyResult best = run_single(trace);
  std::vector<double> combined = best.chunk_max_us;
  for (int trial = 1; trial < trials; ++trial) {
    LatencyResult next = run_single(trace);
    for (std::size_t i = 0; i < combined.size(); ++i) {
      combined[i] = std::min(combined[i], next.chunk_max_us[i]);
    }
    if (next.max_ms < best.max_ms) best = std::move(next);
  }
  best.chunk_max_us = combined;
  best.max_ms =
      *std::max_element(combined.begin(), combined.end()) / 1000.0;
  return best;
}

std::string join_trajectory(const std::vector<double>& chunk_max_us) {
  std::string out;
  char buf[32];
  for (const double v : chunk_max_us) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    if (!out.empty()) out += ',';
    out += buf;
  }
  return out;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // Quick mode keeps the LARGE size: the growth cliff this bench guards
  // scales with the table, and at 10⁴ a genuine regression (~0.2 ms) is
  // indistinguishable from scheduler jitter — the CI regression gate
  // needs the 10⁵ signal (~3 ms stop-the-world vs ~0.1–0.2 ms
  // incremental), which a few trials deliver in a few seconds.
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{100'000}
                 : std::vector<std::size_t>{10'000, 100'000};

  Table table("E16 flat-hash growth latency (incremental two-table rehash)");
  table.set_header({"n", "mode", "requests", "p50us", "p99us", "p999us", "max_ms"});
  JsonRows json("e16_rehash");

  // The mode label stays in the rows so they keep matching the committed
  // baseline's "incremental" rows (tools/bench_compare.py identity keys).
  const auto emit_row = [&](std::size_t n, const LatencyResult& r) {
    const char* mode = "incremental";
    char p50[32], p99[32], p999[32], mx[32];
    std::snprintf(p50, sizeof(p50), "%.2f", r.p50_us);
    std::snprintf(p99, sizeof(p99), "%.1f", r.p99_us);
    std::snprintf(p999, sizeof(p999), "%.1f", r.p999_us);
    std::snprintf(mx, sizeof(mx), "%.3f", r.max_ms);
    table.add_row({std::to_string(n), mode, std::to_string(r.requests), p50, p99, p999,
                   mx});
    json.row()
        .field("n", n)
        .field("mode", mode)
        .field("requests", r.requests)
        .field("seconds", r.seconds)
        .field("p50_us", r.p50_us)
        .field("p90_us", r.p90_us)
        .field("p99_us", r.p99_us)
        .field("p999_us", r.p999_us)
        .field("max_ms", r.max_ms)
        .field("trajectory_max_us", join_trajectory(r.chunk_max_us));
  };

  const int trials = args.quick ? kTrialsQuick : kTrials;
  for (const std::size_t n : sizes) emit_row(n, run_trials(trace_for(n), trials));

  emit(table, args);
  json.emit(args, "BENCH_rehash.json");
  return 0;
}

}  // namespace
}  // namespace reasched::bench

int main(int argc, char** argv) { return reasched::bench::run(argc, argv); }
