// E12 — hot-path throughput: requests/second of the single-machine
// ReservationScheduler (incremental fulfillment caching + flat containers +
// occupancy index) on steady-state insert/delete churn. The paper bounds
// *reallocations*; this experiment tracks what the bookkeeping costs in
// wall-clock terms so every future scaling PR has a machine-readable
// baseline (BENCH_hotpath.json). Absolute ops/sec is hardware dependent
// (EXPERIMENTS.md §E12).
//
// Protocol (EXPERIMENTS.md §E12): per configuration one scheduler is warmed
// to n active jobs audit-free, then three consecutive churn segments are
// timed and the best is reported (first-segment numbers are dominated by
// cold caches and CPU clock ramp); the audited segment runs last on the
// same warm scheduler and is sized inversely to n because the audit is
// O(total state) per request.
#include <chrono>
#include <cstdio>

#include "common.hpp"

namespace reasched::bench {
namespace {

constexpr std::size_t kChurnReps = 3;

struct SegmentResult {
  double seconds = 0;
  std::uint64_t requests = 0;
  double ops_per_sec = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t degraded = 0;
  telemetry::LatencyHistogram latency;  // per-request, timed segments only
};

std::vector<Request> trace_for(std::size_t n, WindowPlacement placement,
                               std::size_t churn, std::size_t audit_churn) {
  ChurnParams params;
  params.seed = 42 + n;
  params.target_active = n;
  // Warmup ramp (~n requests), kChurnReps timed churn segments, then the
  // audited tail.
  params.requests = n + kChurnReps * churn + audit_churn;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = placement;
  return make_churn_trace(params);
}

struct RunResult {
  SegmentResult churn;  // best of kChurnReps
  SegmentResult audited;
  /// Interval-arena bytes reserved over every level after the churn
  /// segments, divided by n (ungated; tracks the slot-table layout).
  double arena_bytes_per_job = 0;
};

RunResult run_trace(const std::vector<Request>& trace, std::size_t warmup,
                    std::size_t churn, std::size_t audit_churn) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  ReservationScheduler scheduler(options);

  std::size_t i = 0;
  const auto serve = [&](SegmentResult* out) {
    const Request& request = trace[i++];
    // Two clock reads per request (~tens of ns) ride inside the timed
    // segment.
    const std::uint64_t start = out != nullptr ? telemetry::now_ns() : 0;
    const RequestStats stats = request.kind == RequestKind::kInsert
                                   ? scheduler.insert(request.job, request.window)
                                   : scheduler.erase(request.job);
    if (out != nullptr) {
      out->latency.record(telemetry::now_ns() - start);
      out->reallocations += stats.reallocations;
      out->degraded += stats.degraded;
      ++out->requests;
    }
  };
  const auto timed_segment = [&](std::size_t count) {
    SegmentResult segment;
    const auto start = std::chrono::steady_clock::now();
    while (i < trace.size() && segment.requests < count) serve(&segment);
    const auto stop = std::chrono::steady_clock::now();
    segment.seconds = std::chrono::duration<double>(stop - start).count();
    segment.ops_per_sec =
        segment.seconds > 0 ? static_cast<double>(segment.requests) / segment.seconds
                            : 0;
    return segment;
  };

  while (i < trace.size() && i < warmup) serve(nullptr);

  RunResult result;
  for (std::size_t rep = 0; rep < kChurnReps; ++rep) {
    const SegmentResult segment = timed_segment(churn);
    if (segment.ops_per_sec > result.churn.ops_per_sec) result.churn = segment;
  }
  std::size_t arena_bytes = 0;
  for (unsigned level = 1; level < options.levels.level_count(); ++level) {
    arena_bytes += scheduler.arena_stats(level).bytes_reserved;
  }
  result.arena_bytes_per_job =
      static_cast<double>(arena_bytes) / static_cast<double>(warmup);
  scheduler.set_audit_policy({.mode = audit::Mode::kFull});  // full sweep per request
  result.audited = timed_segment(audit_churn);
  return result;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{1'000, 10'000}
                 : std::vector<std::size_t>{1'000, 10'000, 100'000};
  const std::size_t churn = args.quick ? 3'000 : 100'000;

  Table table("E12 hot-path throughput (insert/delete churn)");
  table.set_header(
      {"n", "placement", "audit", "requests", "seconds", "ops/sec", "arena B/job"});
  JsonRows json("e12_hotpath");

  const auto emit_row = [&](std::size_t n, const char* placement, bool audit,
                            const SegmentResult& segment, double arena_bytes_per_job) {
    char seconds[32];
    char ops[32];
    char arena[32];
    std::snprintf(seconds, sizeof(seconds), "%.3f", segment.seconds);
    std::snprintf(ops, sizeof(ops), "%.0f", segment.ops_per_sec);
    std::snprintf(arena, sizeof(arena), "%.1f", arena_bytes_per_job);
    table.add_row({std::to_string(n), placement, audit ? "on" : "off",
                   std::to_string(segment.requests), seconds, ops, arena});
    auto& row = json.row()
                    .field("n", n)
                    .field("placement", placement)
                    .field("audit", audit)
                    .field("requests", segment.requests)
                    .field("seconds", segment.seconds)
                    .field("ops_per_sec", segment.ops_per_sec)
                    .field("reallocations", segment.reallocations)
                    .field("degraded", segment.degraded)
                    .field("arena_bytes_per_job", arena_bytes_per_job);
    latency_fields(row, segment.latency);
  };

  for (const std::size_t n : sizes) {
    // The audit is O(total state) per request; size its segment inversely to
    // n so the audited rows cost seconds, not minutes (ops/sec is a rate and
    // does not need a long segment).
    const std::size_t audit_churn =
        args.quick ? 100 : std::max<std::size_t>(20, 1'000'000 / n);
    for (const auto& [placement, label] :
         {std::pair{WindowPlacement::kUniform, "uniform"},
          std::pair{WindowPlacement::kNestedHotspots, "hotspot"}}) {
      const auto trace = trace_for(n, placement, churn, audit_churn);
      const RunResult result = run_trace(trace, n, churn, audit_churn);
      emit_row(n, label, false, result.churn, result.arena_bytes_per_job);
      emit_row(n, label, true, result.audited, result.arena_bytes_per_job);
    }
  }

  emit(table, args);
  json.emit(args, "BENCH_hotpath.json");
  return 0;
}

}  // namespace
}  // namespace reasched::bench

int main(int argc, char** argv) { return reasched::bench::run(argc, argv); }
