// E14 — rebuild-boundary latency: per-request wall-clock latency of the
// single-machine ReservationScheduler across n* doubling/halving
// boundaries, partitioned rebuild (default pace) versus the stop-the-world
// pace (rebuild_batch = SIZE_MAX: the same migration flushed inside its
// boundary request, reported as mode "legacy"), in the same binary and on
// the same trace. The paper's
// amortized O(1) reallocation bound hides a Θ(n) wall-clock cliff on the
// rebuild request; this experiment records the
// latency distribution (p50/p99/p99.9/max) that the partitioned
// shadow-generation migration flattens (EXPERIMENTS.md §E14 — protocol,
// acceptance bar, and the recorded BENCH_rebuild.json baseline).
//
// Trace shape: a ramp to n active jobs (crossing every doubling boundary
// up to n), steady churn at n, then a teardown to n/8 (crossing halving
// boundaries). Quiescent schedules are byte-identical at both paces — the
// differential suite (tests/partitioned_rebuild_test.cpp) asserts it — so
// the comparison is purely about *when* the rebuild work is done.
//
// Flat-hash growth is the incremental two-table rehash, so the partitioned
// rows' max reflects the rebuild machinery alone (the hash-tier cliff is
// measured by bench_e16).
//
// Flags: common ones (--csv, --json[=path], --quick) plus --legacy-rebuild
// to run ONLY the stop-the-world mode (manual A/B; by default both modes
// run and the speedup column compares them).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace reasched::bench {
namespace {

struct LatencyResult {
  double seconds = 0;
  std::uint64_t requests = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_ms = 0;
  double boundary_max_ms = 0;  // max over requests that started/finished a rebuild
  std::uint64_t rebuilds = 0;  // requests with stats.rebuilt
  std::uint64_t reallocations = 0;
};

std::vector<Request> trace_for(std::size_t n, std::size_t churn) {
  ChurnParams params;
  params.seed = 1789 + n;
  params.target_active = n;
  params.requests = n + churn;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

LatencyResult run_mode(const std::vector<Request>& trace, bool stop_the_world) {
  using Clock = std::chrono::steady_clock;
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  // rebuild_batch is also the flush cutoff: at its maximum every n* change
  // finishes its migration inside the boundary request.
  if (stop_the_world) options.rebuild_batch = std::numeric_limits<std::size_t>::max();
  ReservationScheduler scheduler(options);

  std::vector<double> lat;
  lat.reserve(trace.size() + trace.size() / 2);
  LatencyResult result;
  const auto serve = [&](const Request& request) {
    const auto start = Clock::now();
    const RequestStats stats = request.kind == RequestKind::kInsert
                                   ? scheduler.insert(request.job, request.window)
                                   : scheduler.erase(request.job);
    const auto stop = Clock::now();
    const double us = std::chrono::duration<double, std::micro>(stop - start).count();
    lat.push_back(us);
    if (stats.rebuilt) {
      ++result.rebuilds;
      result.boundary_max_ms = std::max(result.boundary_max_ms, us / 1000.0);
    }
    result.reallocations += stats.reallocations;
  };

  const auto wall_start = Clock::now();
  // Swap-and-pop with a position index: the active-set bookkeeping must
  // stay O(1) per request so the wall-clock `seconds` field measures
  // serving, not the harness.
  std::vector<JobId> active;
  std::unordered_map<std::uint64_t, std::size_t> position;
  for (const Request& request : trace) {
    serve(request);
    if (request.kind == RequestKind::kInsert) {
      position[request.job.value] = active.size();
      active.push_back(request.job);
    } else {
      const auto it = position.find(request.job.value);
      const std::size_t at = it->second;
      position[active.back().value] = at;
      active[at] = active.back();
      active.pop_back();
      position.erase(it);
    }
  }
  // Teardown to 1/8 of the active set: crosses the halving boundaries.
  const std::size_t keep = active.size() / 8;
  while (active.size() > keep) {
    serve(Request{RequestKind::kDelete, active.back(), Window{}});
    active.pop_back();
  }
  result.seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  result.requests = lat.size();
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

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  bool legacy_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--legacy-rebuild") == 0) legacy_only = true;
  }

  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{10'000}
                 : std::vector<std::size_t>{10'000, 100'000};

  Table table("E14 rebuild-boundary latency (partitioned vs stop-the-world)");
  table.set_header({"n", "mode", "requests", "p50us", "p99us", "p999us", "max_ms",
                    "boundary_max_ms", "rebuilds", "speedup_max"});
  JsonRows json("e14_rebuild");

  const auto emit_row = [&](std::size_t n, const char* mode, const LatencyResult& r,
                            double speedup_max) {
    char p50[32], p99[32], p999[32], mx[32], bmx[32], sp[32];
    std::snprintf(p50, sizeof(p50), "%.2f", r.p50_us);
    std::snprintf(p99, sizeof(p99), "%.1f", r.p99_us);
    std::snprintf(p999, sizeof(p999), "%.1f", r.p999_us);
    std::snprintf(mx, sizeof(mx), "%.3f", r.max_ms);
    std::snprintf(bmx, sizeof(bmx), "%.3f", r.boundary_max_ms);
    std::snprintf(sp, sizeof(sp), "%.2fx", speedup_max);
    table.add_row({std::to_string(n), mode, std::to_string(r.requests), p50, p99, p999,
                   mx, bmx, std::to_string(r.rebuilds), sp});
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
        .field("boundary_max_ms", r.boundary_max_ms)
        .field("rebuilds", r.rebuilds)
        .field("reallocations", r.reallocations)
        .field("speedup_max_vs_legacy", speedup_max);
  };

  for (const std::size_t n : sizes) {
    const auto trace = trace_for(n, /*churn=*/n / 2);
    if (legacy_only) {
      emit_row(n, "legacy", run_mode(trace, true), 1.0);
      continue;
    }
    const LatencyResult partitioned = run_mode(trace, false);
    const LatencyResult legacy = run_mode(trace, true);
    const double speedup =
        partitioned.max_ms > 0 ? legacy.max_ms / partitioned.max_ms : 0;
    emit_row(n, "partitioned", partitioned, speedup);
    emit_row(n, "legacy", legacy, 1.0);
  }

  emit(table, args);
  json.emit(args, "BENCH_rebuild.json");
  return 0;
}

}  // namespace
}  // namespace reasched::bench

int main(int argc, char** argv) { return reasched::bench::run(argc, argv); }
