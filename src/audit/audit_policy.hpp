// Runtime policy for the incremental audit engine (src/audit/).
//
// This policy is the audit machinery's one runtime gate (see
// util/assert.hpp for the full compile-time/runtime gating matrix): it
// selects the full O(state) sweep or the dirty-set engine, and mirrors the
// partitioned-rebuild pacing knobs: how *often* audit work happens
// (cadence) and how *much* of the backlog one request may pay for (budget).
#pragma once

#include <cstddef>
#include <cstdint>

namespace reasched::audit {

enum class Mode : std::uint8_t {
  /// No engine, no events, no audit work at all (verifiably zero — the
  /// bench smoke asserts it via ReservationScheduler::audit_work()).
  kOff,
  /// Full O(state) sweep at the cadence below; cadence 1 audits after
  /// every request (the test suites' setting).
  kFull,
  /// Dirty-set driven: mutation events mark intervals / windows / jobs
  /// dirty, and an audit call re-verifies only the dirty regions plus the
  /// O(1) global counters. Escalates to one full sweep after wholesale
  /// state changes (generation swap seeding, emergency rebuild, engine
  /// enable) and reseeds its shadow counters from the verified state.
  kIncremental,
};

struct AuditPolicy {
  Mode mode = Mode::kOff;

  /// Audit after every cadence-th request. 0 = never automatically — the
  /// engine still ingests events and an external driver (the parent
  /// scheduler of a migration shadow, a test, the sim driver's audit_hook)
  /// invokes the audit explicitly.
  std::uint64_t cadence = 1;

  /// Budgeted slice: at most this many dirty regions (jobs + windows +
  /// intervals) verified per audit call; the remainder stays dirty and is
  /// drained by later calls, exactly like the partitioned rebuild spreads
  /// reinsertions. 0 = unbounded (drain everything every audit).
  std::size_t budget = 0;

  /// Pace for draining migration-sized dirt bursts: a rebuild shadow
  /// accumulates a whole cadence window's reinsertion dirt between parent
  /// audits, and the generation swap hands the surviving engine the
  /// remaining backlog wholesale (AuditEngine::swap_state_with). With
  /// budget == 0 the next audit verified all of it in one call — the E15
  /// incremental max-latency spike. Instead the owner arms pacing for
  /// mid-migration shadow audits and for the post-swap carry-over: each
  /// audit verifies at most this many regions until the backlog fits one
  /// budget again, exactly like the rebuild itself spreads reinsertions
  /// ("detection delayed, never lost"). 0 disables pacing (drain-all, the
  /// pre-E16 behavior); an explicit `budget` below this value wins.
  std::size_t post_swap_budget = 256;

  /// Differential mode (tests, bench_e15): after an incremental audit
  /// accepts, run the full sweep too and fail loudly if it disagrees — the
  /// incremental auditor must accept/reject exactly when the sweep does.
  bool differential = false;

  [[nodiscard]] bool enabled() const noexcept { return mode != Mode::kOff; }

  /// Cadence gate shared by every scheduler front end: true when the
  /// owner's request counter says an audit is due under this policy.
  [[nodiscard]] bool due(std::uint64_t request_index) const noexcept {
    return enabled() && cadence != 0 && request_index % cadence == 0;
  }
};

}  // namespace reasched::audit
