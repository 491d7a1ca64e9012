// E15 — audit throughput: per-audit cost of the incremental dirty-region
// audit engine (src/audit/) versus the full O(state) sweep, on the same
// mixed insert/delete churn trace (trimming on, so n*-rebuild migrations
// run underneath). Acceptance bar (ISSUE 4): the incremental path beats the
// full sweep by >= 10x per audit at n = 1e5; a differential mode asserts
// the incremental auditor accepts/rejects exactly when the sweep does,
// including under deliberate state corruption, and the audit-off smoke
// asserts that serving with the runtime gate off performs provably zero
// audit work. Protocol, acceptance bar and the recorded BENCH_audit.json
// baseline: EXPERIMENTS.md §E15.
//
// Flags: the common ones (--csv, --json[=path], --quick).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"

namespace reasched::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct AuditCost {
  double serve_seconds = 0;  // wall clock of the whole replay (audits included)
  std::uint64_t audits = 0;
  double mean_us = 0;
  double p50_us = 0;
  double max_us = 0;
  std::uint64_t regions = 0;  // dirty regions verified (incremental mode)
  telemetry::LatencyHistogram serve_latency;  // per serve call, audits excluded
};

std::vector<Request> trace_for(std::size_t n) {
  ChurnParams params;
  params.seed = 2026 + n;
  params.target_active = n;
  params.requests = n + n / 2;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

/// Replays the trace, running one audit every `cadence` requests — the full
/// sweep or the incremental engine — and times each audit call.
AuditCost run_mode(const std::vector<Request>& trace, std::size_t cadence,
                   bool incremental) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  if (incremental) {
    options.audit_policy.mode = audit::Mode::kIncremental;
    options.audit_policy.cadence = 0;  // driven (and timed) by the loop below
  }
  ReservationScheduler scheduler(options);

  std::vector<double> audit_us;
  audit_us.reserve(trace.size() / cadence + 2);
  const auto audit_now = [&] {
    const auto start = Clock::now();
    if (incremental) {
      scheduler.incremental_audit();
    } else {
      scheduler.audit();
    }
    audit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  };

  AuditCost cost;
  const auto wall_start = Clock::now();
  std::size_t served = 0;
  for (const Request& request : trace) {
    const std::uint64_t serve_start = telemetry::now_ns();
    try {
      if (request.kind == RequestKind::kInsert) {
        scheduler.insert(request.job, request.window);
      } else {
        scheduler.erase(request.job);
      }
    } catch (const InfeasibleError&) {
      continue;
    }
    cost.serve_latency.record(telemetry::now_ns() - serve_start);
    if (++served % cadence == 0) audit_now();
  }
  audit_now();  // final state

  cost.serve_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  cost.audits = audit_us.size();
  cost.regions = scheduler.audit_work().regions_checked;
  std::sort(audit_us.begin(), audit_us.end());
  double total = 0;
  for (const double us : audit_us) total += us;
  cost.mean_us = total / static_cast<double>(audit_us.size());
  cost.p50_us = audit_us[audit_us.size() / 2];
  cost.max_us = audit_us.back();
  return cost;
}

/// Audit-off smoke: serving with the runtime gate off must do provably
/// zero audit work (the gating matrix in util/assert.hpp).
bool run_zero_work_smoke(const std::vector<Request>& trace) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  ReservationScheduler scheduler(options);
  for (const Request& request : trace) {
    try {
      if (request.kind == RequestKind::kInsert) {
        scheduler.insert(request.job, request.window);
      } else {
        scheduler.erase(request.job);
      }
    } catch (const InfeasibleError&) {
      continue;
    }
  }
  RS_CHECK(scheduler.audit_work().zero(),
           "E15 smoke: audit-off run performed audit work");
  RS_CHECK(scheduler.audit_backlog() == 0,
           "E15 smoke: audit-off run accumulated dirty regions");
  return true;
}

/// Differential mode: every request audited incrementally with the full
/// sweep cross-check (AuditPolicy::differential), then every corruption
/// kind must be rejected by both auditors. Returns the number of
/// differential audits that agreed.
std::uint64_t run_differential(std::size_t n) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.audit_policy.mode = audit::Mode::kIncremental;
  options.audit_policy.cadence = 1;
  options.audit_policy.differential = true;
  ReservationScheduler scheduler(options);
  const auto trace = trace_for(n);
  for (const Request& request : trace) {
    try {
      if (request.kind == RequestKind::kInsert) {
        scheduler.insert(request.job, request.window);
      } else {
        scheduler.erase(request.job);
      }
    } catch (const InfeasibleError&) {
      continue;
    }
  }
  const std::uint64_t agreed = scheduler.audit_work().incremental_audits;

  using Corruption = ReservationScheduler::Corruption;
  for (const Corruption kind :
       {Corruption::kFlipLowerOccupied, Corruption::kDesyncLowerCount,
        Corruption::kOrphanLedgerSlot, Corruption::kDesyncWindowJobs,
        Corruption::kDesyncParkedCount}) {
    for (const bool use_incremental : {false, true}) {
      SchedulerOptions copt;
      copt.overflow = OverflowPolicy::kBestEffort;
      copt.trimming = false;
      copt.audit_policy.mode = audit::Mode::kIncremental;
      copt.audit_policy.cadence = 0;
      ReservationScheduler target(copt);
      for (std::uint64_t i = 1; i <= 24; ++i) target.insert(JobId{i}, Window{0, 256});
      target.incremental_audit();
      RS_CHECK(target.corrupt_for_test(kind), "E15 differential: no corruption target");
      bool rejected = false;
      try {
        if (use_incremental) {
          target.incremental_audit();
        } else {
          target.audit();
        }
      } catch (const InternalError&) {
        rejected = true;
      }
      RS_CHECK(rejected, "E15 differential: auditor accepted corrupted state");
    }
  }
  return agreed;
}

/// Sharded differential: the service ledger's incremental audit
/// agrees with the full sweep at every shard count, clean and corrupted.
bool sharded_audit_differential(unsigned shards) {
  ShardedScheduler::Options options;
  options.shards = shards;
  ShardedScheduler scheduler(
      8, [] { return std::make_unique<ReservationScheduler>(); }, options);
  Rng rng(500 + shards);
  std::vector<JobId> active;
  std::uint64_t next = 1;
  for (int round = 0; round < 8; ++round) {
    std::vector<Request> batch;
    for (int i = 0; i < 64; ++i) {
      if (!active.empty() && rng.chance(0.4)) {
        const std::size_t at =
            static_cast<std::size_t>(rng.uniform(0, active.size() - 1));
        batch.push_back(Request{RequestKind::kDelete, active[at], Window{}});
        active[at] = active.back();
        active.pop_back();
      } else {
        const Time start = static_cast<Time>(rng.uniform(0, 31) * 128);
        const JobId id{next++};
        batch.push_back(Request{RequestKind::kInsert, id, Window{start, start + 128}});
        active.push_back(id);
      }
    }
    scheduler.apply(batch);
    // Incremental first: the full sweep discharges the dirty queues.
    scheduler.audit_balance_incremental();
    scheduler.audit_balance();
  }
  RS_CHECK(scheduler.corrupt_balance_for_test(),
           "E15 sharded differential: no corruption target");
  bool full_rejected = false;
  try {
    scheduler.audit_balance();
  } catch (const InternalError&) {
    full_rejected = true;
  }
  bool incremental_rejected = false;
  try {
    scheduler.audit_balance_incremental();
  } catch (const InternalError&) {
    incremental_rejected = true;
  }
  RS_CHECK(full_rejected && incremental_rejected,
           "E15 sharded differential: auditors disagreed on corrupted ledger");
  return true;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{10'000}
                 : std::vector<std::size_t>{10'000, 100'000};

  Table table("E15 audit throughput (incremental dirty-region vs full sweep)");
  table.set_header({"n", "mode", "cadence", "audits", "mean_us", "p50_us", "max_us",
                    "regions", "speedup_mean"});
  JsonRows json("e15_audit");

  const auto emit_row = [&](std::size_t n, const char* mode, std::size_t cadence,
                            const AuditCost& cost, double speedup) {
    char mean[32], p50[32], mx[32], sp[32];
    std::snprintf(mean, sizeof(mean), "%.1f", cost.mean_us);
    std::snprintf(p50, sizeof(p50), "%.1f", cost.p50_us);
    std::snprintf(mx, sizeof(mx), "%.1f", cost.max_us);
    std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
    table.add_row({std::to_string(n), mode, std::to_string(cadence),
                   std::to_string(cost.audits), mean, p50, mx,
                   std::to_string(cost.regions), sp});
    json.row()
        .field("n", n)
        .field("mode", mode)
        .field("cadence", cadence)
        .field("audits", cost.audits)
        .field("serve_seconds", cost.serve_seconds)
        .field("mean_per_audit_us", cost.mean_us)
        .field("p50_per_audit_us", cost.p50_us)
        .field("max_per_audit_us", cost.max_us)
        .field("regions_checked", cost.regions)
        .field("speedup_mean_vs_full", speedup);
    latency_fields(json, cost.serve_latency);
  };

  for (const std::size_t n : sizes) {
    const auto trace = trace_for(n);
    // Same cadence for both modes: the incremental auditor pays for ALL
    // the dirt the cadence window accumulated, the sweep pays O(state) —
    // an apples-to-apples per-audit comparison.
    // Cadence 64 everywhere: the continuous audit-on regime E13 measured
    // (one audit per batch). Larger cadences shrink the incremental
    // advantage linearly (more dirt per audit) while the sweep stays
    // O(state); 64 matches the service layer's default batch size.
    const std::size_t cadence = 64;
    const AuditCost incremental = run_mode(trace, cadence, /*incremental=*/true);
    const AuditCost full = run_mode(trace, cadence, /*incremental=*/false);
    const double speedup = incremental.mean_us > 0 ? full.mean_us / incremental.mean_us : 0;
    emit_row(n, "incremental", cadence, incremental, speedup);
    emit_row(n, "full-sweep", cadence, full, 1.0);
    if (!args.quick && n >= 100'000) {
      RS_CHECK(speedup >= 10.0,
               "E15: incremental audit did not reach the 10x acceptance bar");
    }
  }

  // Zero-work smoke, differential agreement, sharded differential.
  const auto smoke_trace = trace_for(args.quick ? 2'000 : 10'000);
  const bool smoke_ok = run_zero_work_smoke(smoke_trace);
  json.row().field("mode", "audit_off_smoke").field("zero_work", smoke_ok);

  const std::uint64_t agreed = run_differential(args.quick ? 1'000 : 4'000);
  json.row()
      .field("mode", "differential")
      .field("agreed_audits", agreed)
      .field("corruptions_rejected", true);

  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    const bool ok = sharded_audit_differential(shards);
    json.row()
        .field("mode", "sharded_differential")
        .field("shards", shards)
        .field("agree", ok);
  }

  emit(table, args);
  json.emit(args, "BENCH_audit.json");
  return 0;
}

}  // namespace
}  // namespace reasched::bench

int main(int argc, char** argv) { return reasched::bench::run(argc, argv); }
