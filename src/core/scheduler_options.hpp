// Configuration for the paper's schedulers. Defaults follow the paper;
// the knobs exist for the ablation experiments (bench E11) and for tests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "audit/audit_policy.hpp"
#include "core/levels.hpp"
#include "telemetry/options.hpp"

namespace reasched {

/// What to do when the reservation machinery cannot find an entitled slot —
/// i.e. when the instance is not sufficiently underallocated for Lemma 8's
/// guarantee to hold.
enum class OverflowPolicy : std::uint8_t {
  /// Throw InfeasibleError; the request is rejected, state unchanged
  /// observable behavior-wise (strong guarantee used in tests).
  kThrow,
  /// Degrade gracefully: "park" the job on any empty slot of its window
  /// (falling back to naive pecking order if the window is full of
  /// longer-span jobs). Parked placements keep the schedule feasible but
  /// void the O(log*) guarantee until slack returns.
  kBestEffort,
};

/// How lower-level schedulers pick among several usable empty slots.
enum class PlacementPolicy : std::uint8_t {
  /// Paper-faithful: lower levels ignore higher-level reservations entirely
  /// ("the recursive scheduler makes decisions without paying attention to
  /// the higher-level jobs"); first fit.
  kOblivious,
  /// Ablation: prefer slots that are not reserved by any materialized
  /// higher-level window, reducing waitlist churn (bench E11 measures the
  /// effect).
  kAvoidReserved,
};

struct SchedulerOptions {
  /// Underallocation factor assumed by the trimming rule (§4: windows are
  /// trimmed to span 2γn*). Only used when trimming is enabled.
  std::uint64_t gamma = 8;

  /// §4 "Trimming Windows to n": maintain the n* estimate and trim windows,
  /// making the cost bound O(log* n) rather than O(log* Δ).
  bool trimming = true;

  OverflowPolicy overflow = OverflowPolicy::kThrow;
  PlacementPolicy placement = PlacementPolicy::kOblivious;

  /// Interval-decomposition tower; tests substitute custom towers to make
  /// deeper levels reachable at small spans.
  LevelTable levels = LevelTable::paper();

  /// Runtime audit gate (src/audit/; gating matrix in util/assert.hpp).
  /// Mode kFull runs the O(state) internal-invariant sweep every cadence-th
  /// request ({kFull, cadence 1} audits after every request, the tests'
  /// setting). Mode kIncremental attaches an AuditEngine that tracks dirty
  /// intervals/windows/jobs from mutation events and re-verifies only
  /// those regions (plus O(1) global counters) at the configured
  /// cadence/budget; kOff means no engine and verifiably zero audit work
  /// (bench_e15 smoke).
  audit::AuditPolicy audit_policy{};

  /// Runtime gate for the telemetry tier (src/telemetry/, DESIGN.md §10).
  /// Constructing a scheduler with `telemetry.enabled` flips the
  /// process-wide recording switches (turn-on only).
  telemetry::TelemetryOptions telemetry{};

  /// n*-rebuild migration pace: work units (snapshot reinsertions or
  /// queued-request replays) performed per request while a rebuild
  /// migration is in flight. An active set no larger than this fits one
  /// request's budget, so its migration is flushed inside the boundary
  /// request. std::numeric_limits<std::size_t>::max() therefore finishes
  /// every rebuild inside its boundary request (a Θ(n) latency cliff, the
  /// baseline of the rebuild-latency benchmark, EXPERIMENTS.md §E14); the
  /// quiescent schedules are byte-identical at every pace.
  std::size_t rebuild_batch = 64;
};

}  // namespace reasched
