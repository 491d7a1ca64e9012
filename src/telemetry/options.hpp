// Runtime knob for the telemetry tier (src/telemetry/, DESIGN.md §10).
//
// This header is intentionally dependency-free: it is embedded in
// SchedulerOptions, ShardedScheduler::Options, and SimOptions, so every
// options struct compiles identically whether or not the telemetry record
// paths are compiled in (REASCHED_TELEMETRY). Passing `enabled`/`trace`
// through any of those structs flips the process-wide recording switches at
// construction/replay time — see telemetry::enable() in registry.hpp for
// the exact semantics (turn-on only; never silently disables a concurrent
// user).
#pragma once

#include <cstdint>

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
  /// Background Scraper cadence (telemetry/scraper.hpp): snapshot the
  /// registry every this many milliseconds and compute delta-since-last-
  /// scrape rates. 0 (the default) means no scraper thread; harnesses that
  /// honor the knob (sim/open_loop, trace_replay) start one when set. The
  /// scraper reads merged shards on its own thread — record sites never
  /// see it.
  std::uint32_t scrape_interval_ms = 0;
};

}  // namespace reasched::telemetry
