// Runtime knob for the telemetry tier (src/telemetry/, DESIGN.md §10).
//
// This header is intentionally dependency-free: it is embedded in
// SchedulerOptions, ShardedScheduler::Options, and SimOptions without
// pulling the registry into every options header. Passing `enabled`/`trace`
// through any of those structs flips the process-wide recording switches at
// construction/replay time — see telemetry::enable() in registry.hpp for
// the exact semantics (turn-on only; never silently disables a concurrent
// user). A background scraper is not a recording switch: harnesses that
// want one (trace_replay's --scrape-interval, bench_e21_serve) build
// telemetry::Scraper::Options themselves (telemetry/scraper.hpp).
#pragma once

namespace reasched::telemetry {

struct TelemetryOptions {
  /// Record counters, gauges, and latency histograms into the process-wide
  /// registry (merged across per-thread shards on scrape). Off by default:
  /// every record site then costs one relaxed load + branch.
  bool enabled = false;
  /// Additionally record span/instant events into per-thread TraceRings
  /// (fixed capacity, overwrite-oldest) for chrome://tracing export. A
  /// debugging tier, priced separately from `enabled` (EXPERIMENTS.md
  /// §E18); implies `enabled`.
  bool trace = false;
};

}  // namespace reasched::telemetry
