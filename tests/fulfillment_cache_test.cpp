// Regression suite for the incremental fulfillment cache
// (reservation_scheduler, DESIGN.md §4).
//
// The cache's contract is that every cached table equals a cold
// recomputation off the ledgers whenever it is consumed (Observation 7
// makes fulfillment history independent, so "equal after every request" is
// the exact correctness bar — any missed invalidation shows up as a
// divergence). verify_fulfillment_cache() performs that comparison
// entry-by-entry and throws on mismatch; these tests drive it through
// every mutation class: inserts, erases, window activation/deactivation,
// displacement cascades, n* rebuilds, and best-effort degradation.
#include <gtest/gtest.h>

#include <unordered_map>

#include "reasched/reasched.hpp"
#include "schedule/validator.hpp"

namespace reasched {
namespace {

RequestStats serve(ReservationScheduler& s, const Request& r) {
  return r.kind == RequestKind::kInsert ? s.insert(r.job, r.window) : s.erase(r.job);
}

std::vector<Request> churn_trace(std::uint64_t seed, std::size_t requests,
                                 WindowPlacement placement) {
  ChurnParams params;
  params.seed = seed;
  params.target_active = 512;
  params.requests = requests;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = placement;
  return make_churn_trace(params);
}

TEST(FulfillmentCache, MatchesColdRecomputationAfterEveryRequest) {
  // The acceptance bar from the issue: a 10k-request randomized churn run
  // where cached tables match a cold recomputation after every mutation.
  for (const auto placement :
       {WindowPlacement::kUniform, WindowPlacement::kNestedHotspots}) {
    const auto trace = churn_trace(1234, 10'000, placement);
    SchedulerOptions options;
    options.overflow = OverflowPolicy::kBestEffort;
    ReservationScheduler s(options);
    std::size_t verified_total = 0;
    for (const Request& r : trace) {
      serve(s, r);
      ASSERT_NO_THROW(verified_total += s.verify_fulfillment_cache());
    }
    // The run must actually exercise the cache, not vacuously pass.
    EXPECT_GT(verified_total, 10'000u) << "placement " << static_cast<int>(placement);
  }
}

TEST(FulfillmentCache, SurvivesRebuildCycles) {
  // Drive n* through repeated doublings and halvings (trimming enabled by
  // default): every rebuild clears and lazily rematerializes all interval
  // state, a classic place for stale-cache bugs.
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  ReservationScheduler s(options);
  std::uint64_t next = 1;
  std::vector<JobId> active;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 300; ++i) {
      const JobId id{next++};
      s.insert(id, Window{(static_cast<Time>(i) % 8) * 512, (static_cast<Time>(i) % 8) * 512 + 512});
      active.push_back(id);
      ASSERT_NO_THROW(s.verify_fulfillment_cache());
    }
    while (active.size() > 20) {
      s.erase(active.back());
      active.pop_back();
      ASSERT_NO_THROW(s.verify_fulfillment_cache());
    }
  }
  EXPECT_EQ(s.active_jobs(), active.size());
}

TEST(FulfillmentCache, AuditUnderChurnStress) {
  // Full-invariant audit (which includes the cache comparison) after every
  // one of 2k randomized requests, in both placement regimes.
  for (const auto placement :
       {WindowPlacement::kUniform, WindowPlacement::kNestedHotspots}) {
    const auto trace = churn_trace(99, 2'000, placement);
    SchedulerOptions options;
    options.overflow = OverflowPolicy::kBestEffort;
    options.audit_policy.mode = audit::Mode::kFull;  // audit() throws InternalError on any violation
    ReservationScheduler s(options);
    std::unordered_map<JobId, Window> live;
    for (const Request& r : trace) {
      ASSERT_NO_THROW(serve(s, r)) << "placement " << static_cast<int>(placement);
      if (r.kind == RequestKind::kInsert) {
        live.emplace(r.job, r.window);
      } else {
        live.erase(r.job);
      }
    }
    EXPECT_TRUE(validate_schedule(s.snapshot(), live).ok());
  }
}

TEST(FulfillmentCache, AuditUnderOverloadDegradation) {
  // Sustained overload exercises parking, emergency EDF rescheduling and
  // the recovery paths — all of which reset or bypass cached state.
  SchedulerOptions options;
  options.trimming = false;
  options.overflow = OverflowPolicy::kBestEffort;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);
  Rng rng(7);
  std::vector<JobId> active;
  std::uint64_t next = 1;
  const std::vector<Window> windows = {{0, 64}, {64, 128}, {0, 128}, {0, 256}};
  for (int step = 0; step < 800; ++step) {
    if (!active.empty() && rng.chance(0.45)) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform(0, active.size() - 1));
      s.erase(active[pick]);
      active[pick] = active.back();
      active.pop_back();
    } else {
      const JobId id{next++};
      try {
        s.insert(id, windows[static_cast<std::size_t>(rng.uniform(0, 3))]);
        active.push_back(id);
      } catch (const InfeasibleError&) {
        // Physically full; acceptable under deliberate overload.
      }
    }
  }
  SUCCEED();  // no audit (hence no cache) violation during the run
}

// The cached path's decisions on a 4k-request stress trace are pinned by
// GoldenDigest.FulfillmentCacheStress (tests/golden_digest_test.cpp).

TEST(FulfillmentCache, IntrospectionIsHistoryIndependent) {
  // Observation 7: fulfillment is a pure function of the ledgers, so two
  // schedulers that reach the same job counts through different request
  // orders report the same tables, materialized and unmaterialized
  // intervals alike.
  ReservationScheduler forward;
  ReservationScheduler backward;
  const auto window_of = [](std::uint64_t id) {
    const Time start = (static_cast<Time>(id) % 4) * 1024;
    return Window{start, start + 1024};
  };
  for (std::uint64_t id = 1; id <= 64; ++id) {
    forward.insert(JobId{id}, window_of(id));
    backward.insert(JobId{65 - id}, window_of(65 - id));
  }
  for (Time base = 0; base < 8192; base += 256) {
    const auto a = forward.fulfillment_of_interval(2, base);
    const auto b = backward.fulfillment_of_interval(2, base);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].window, b[i].window);
      EXPECT_EQ(a[i].active, b[i].active);
      EXPECT_EQ(a[i].reservations, b[i].reservations);
      EXPECT_EQ(a[i].fulfilled, b[i].fulfilled);
    }
  }
}

}  // namespace
}  // namespace reasched
