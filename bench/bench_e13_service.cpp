// E13 — service-layer batch throughput: requests/second of the sharded
// batch-scheduling service (ShardedScheduler::apply) versus the sequential
// reduction (one shard, per-request insert/erase), on the E12 churn regimes
// at m = 8 machines. The
// two paths do byte-identical scheduling work (the differential test in
// tests/sharded_scheduler_test.cpp proves identical schedules and stats),
// so the measured difference isolates the serving layer: per-batch
// amortization of fixed costs and, on multi-core hosts, shard parallelism.
//
// Two audit regimes, mirroring E12:
//   * audit=off — raw serving throughput. Shard speedup here requires
//     hardware parallelism; on a single-core host it stays ~1x.
//   * audit=continuous — the deployment regime where the scheduler
//     self-checks: sequential mode audits the serving machine after every
//     request (audit_policy {kFull, cadence 1}); batched mode audits
//     every machine plus the balance ledger once per batch. Batching
//     amortizes the O(state) audit across the whole batch — the dominant
//     fixed cost the ROADMAP's batched-API item targets.
//
// Protocol (EXPERIMENTS.md §E13): per configuration the scheduler is warmed
// to n active jobs audit-free, then three churn segments are timed and the
// best is kept; the audited segment runs last on the same warm scheduler.
#include <chrono>
#include <cstdio>
#include <span>

#include "common.hpp"

namespace reasched::bench {
namespace {

constexpr unsigned kMachines = 8;
constexpr std::size_t kBatchSize = 512;
constexpr std::size_t kChurnReps = 3;

struct SegmentResult {
  double seconds = 0;
  std::uint64_t requests = 0;
  double ops_per_sec = 0;
  // Sequential mode: per-request; batched mode: per-apply() batch (the
  // batch is the serving unit; per-request attribution would be fiction).
  telemetry::LatencyHistogram latency;
};

std::vector<Request> trace_for(std::size_t n, WindowPlacement placement,
                               std::size_t churn, std::size_t audit_churn) {
  ChurnParams params;
  params.seed = 42 + n;
  params.target_active = n;
  params.requests = n + kChurnReps * churn + audit_churn;
  params.machines = kMachines;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = placement;
  return make_churn_trace(params);
}

struct ModeResult {
  SegmentResult churn;  // best of kChurnReps, audit off
  SegmentResult audited;
};

/// shards == 0: sequential mode, a one-shard ShardedScheduler served per
/// request. shards >= 1: ShardedScheduler, batches of kBatchSize.
ModeResult run_mode(const std::vector<Request>& trace, std::size_t warmup,
                    std::size_t churn, std::size_t audit_churn, unsigned shards) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  std::vector<ReservationScheduler*> machines;
  const auto factory = [&machines, options] {
    auto scheduler = std::make_unique<ReservationScheduler>(options);
    machines.push_back(scheduler.get());
    return scheduler;
  };

  const bool sequential = shards == 0;
  ShardedScheduler::Options service;
  service.shards = sequential ? 1 : shards;
  ShardedScheduler scheduler(kMachines, factory, service);

  std::size_t i = 0;
  bool audit_batches = false;
  telemetry::LatencyHistogram* lat = nullptr;  // timed segments only
  // Serves `count` requests; sequential mode one by one, batched mode via
  // apply() in kBatchSize chunks (with the per-batch audit when enabled).
  const auto serve = [&](std::size_t count) {
    std::uint64_t served = 0;
    while (i < trace.size() && served < count) {
      const std::uint64_t start = lat != nullptr ? telemetry::now_ns() : 0;
      if (sequential) {
        const Request& request = trace[i++];
        if (request.kind == RequestKind::kInsert) {
          (void)scheduler.insert(request.job, request.window);
        } else {
          (void)scheduler.erase(request.job);
        }
        ++served;
      } else {
        const std::size_t chunk =
            std::min({kBatchSize, count - served, trace.size() - i});
        const BatchResult result =
            scheduler.apply(std::span<const Request>(trace).subspan(i, chunk));
        RS_REQUIRE(result.all_served(), "bench_e13: unexpected rejection");
        i += chunk;
        served += chunk;
        if (audit_batches) {
          for (ReservationScheduler* machine : machines) machine->audit();
          scheduler.audit_balance();
        }
      }
      if (lat != nullptr) lat->record(telemetry::now_ns() - start);
    }
    return served;
  };
  const auto timed_segment = [&](std::size_t count) {
    SegmentResult segment;
    lat = &segment.latency;
    const auto start = std::chrono::steady_clock::now();
    segment.requests = serve(count);
    const auto stop = std::chrono::steady_clock::now();
    segment.seconds = std::chrono::duration<double>(stop - start).count();
    segment.ops_per_sec =
        segment.seconds > 0 ? static_cast<double>(segment.requests) / segment.seconds
                            : 0;
    lat = nullptr;
    return segment;
  };

  serve(warmup);

  ModeResult result;
  for (std::size_t rep = 0; rep < kChurnReps; ++rep) {
    const SegmentResult segment = timed_segment(churn);
    if (segment.ops_per_sec > result.churn.ops_per_sec) result.churn = segment;
  }
  if (sequential) {
    for (ReservationScheduler* machine : machines) {
      machine->set_audit_policy({.mode = audit::Mode::kFull});  // full sweep per request
    }
  } else {
    audit_batches = true;
  }
  result.audited = timed_segment(audit_churn);
  return result;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{1'000}
                 : std::vector<std::size_t>{1'000, 10'000};
  const std::size_t churn = args.quick ? 3'000 : 20'000;
  const std::vector<unsigned> shard_counts = {1, 2, 4, 8};

  Table table("E13 service-layer batch throughput (m=8, batch=512)");
  table.set_header(
      {"n", "placement", "audit", "mode", "requests", "seconds", "ops/sec", "speedup"});
  JsonRows json("e13_service");

  const auto emit_row = [&](std::size_t n, const char* placement, bool audit,
                            const std::string& mode, unsigned shards,
                            const SegmentResult& segment, double speedup) {
    char seconds[32];
    char ops[32];
    char speedup_str[32];
    std::snprintf(seconds, sizeof(seconds), "%.4f", segment.seconds);
    std::snprintf(ops, sizeof(ops), "%.0f", segment.ops_per_sec);
    std::snprintf(speedup_str, sizeof(speedup_str), "%.2fx", speedup);
    table.add_row({std::to_string(n), placement, audit ? "continuous" : "off", mode,
                   std::to_string(segment.requests), seconds, ops, speedup_str});
    auto& row = json.row()
                    .field("n", n)
                    .field("placement", placement)
                    .field("audit", audit)
                    .field("mode", mode)
                    .field("shards", shards)
                    .field("batch", shards == 0 ? std::size_t{1} : kBatchSize)
                    .field("requests", segment.requests)
                    .field("seconds", segment.seconds)
                    .field("ops_per_sec", segment.ops_per_sec)
                    .field("speedup_vs_sequential", speedup);
    latency_fields(row, segment.latency);
  };

  for (const std::size_t n : sizes) {
    // The per-request audit is O(machine state); size the audited segment
    // inversely to n (E12 protocol) so rows cost seconds, not minutes.
    const std::size_t audit_churn =
        args.quick ? 100 : std::max<std::size_t>(64, 1'000'000 / n);
    for (const auto& [placement, label] :
         {std::pair{WindowPlacement::kUniform, "uniform"},
          std::pair{WindowPlacement::kNestedHotspots, "hotspot"}}) {
      const auto trace = trace_for(n, placement, churn, audit_churn);
      const ModeResult sequential = run_mode(trace, n, churn, audit_churn, 0);
      emit_row(n, label, false, "sequential", 0, sequential.churn, 1.0);
      emit_row(n, label, true, "sequential", 0, sequential.audited, 1.0);
      for (const unsigned shards : shard_counts) {
        const ModeResult batched = run_mode(trace, n, churn, audit_churn, shards);
        const auto ratio = [](const SegmentResult& a, const SegmentResult& b) {
          return b.ops_per_sec > 0 ? a.ops_per_sec / b.ops_per_sec : 0;
        };
        const std::string mode = "batched/s=" + std::to_string(shards);
        emit_row(n, label, false, mode, shards, batched.churn,
                 ratio(batched.churn, sequential.churn));
        emit_row(n, label, true, mode, shards, batched.audited,
                 ratio(batched.audited, sequential.audited));
      }
    }
  }

  emit(table, args);
  json.emit(args, "BENCH_service.json");
  return 0;
}

}  // namespace
}  // namespace reasched::bench

int main(int argc, char** argv) { return reasched::bench::run(argc, argv); }
