// Partitioned n*-rebuild (DESIGN.md §6): the shadow-generation migration
// must keep every mid-migration schedule valid, keep the audit and the
// fulfillment-cache verifier clean at every request, and converge to a
// state byte-identical with the stop-the-world pace (rebuild_batch =
// SIZE_MAX, which flushes every migration inside its boundary request) —
// proven by identical snapshots AND identical per-request behavior on a
// probe suffix after the migration drains.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/incremental_rebuild.hpp"
#include "core/reservation_scheduler.hpp"
#include "schedule/validator.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

std::vector<Request> churn_trace(std::uint64_t seed, std::size_t requests,
                                 std::size_t target, std::uint64_t max_span = 4096) {
  ChurnParams params;
  params.seed = seed;
  params.requests = requests;
  params.target_active = target;
  params.min_span = 64;
  params.max_span = max_span;
  params.aligned = true;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

RequestStats serve(ReservationScheduler& s, const Request& r) {
  return r.kind == RequestKind::kInsert ? s.insert(r.job, r.window) : s.erase(r.job);
}

void expect_identical_snapshots(const ReservationScheduler& a,
                                const ReservationScheduler& b, const char* where) {
  const Schedule sa = a.snapshot();
  const Schedule sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size()) << where;
  for (const auto& [id, placement] : sa.assignments()) {
    const auto other = sb.find(id);
    ASSERT_TRUE(other.has_value()) << where << ": job " << id.value;
    EXPECT_EQ(placement.machine, other->machine) << where << ": job " << id.value;
    EXPECT_EQ(placement.slot, other->slot) << where << ": job " << id.value;
  }
}

// rebuild_batch is also the flush cutoff: at its maximum every n* change
// finishes its migration inside the boundary request.
constexpr std::size_t kStopTheWorld = std::numeric_limits<std::size_t>::max();

SchedulerOptions base_options() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  return options;
}

TEST(PartitionedRebuild, MigrationActuallySpansRequestsAndStaysAudited) {
  // Small batch so the doubling rebuilds at 256+ jobs genuinely stretch
  // over many requests, with the full audit + cache verifier after every
  // single one (audit covers both generations).
  SchedulerOptions options = base_options();
  options.rebuild_batch = 16;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);

  const auto trace = churn_trace(41, 1'500, 600);
  std::unordered_map<JobId, Window> active;
  bool saw_multi_request_migration = false;
  std::size_t validated_mid_migration = 0;
  for (const Request& r : trace) {
    serve(s, r);
    if (r.kind == RequestKind::kInsert) {
      active.emplace(r.job, r.window);
    } else {
      active.erase(r.job);
    }
    ASSERT_NO_THROW(s.verify_fulfillment_cache());
    if (s.rebuild_in_flight()) {
      saw_multi_request_migration = true;
      // Mid-migration the old generation serves: the schedule must stay
      // complete and feasible the whole way through.
      if (++validated_mid_migration % 8 == 1) {
        EXPECT_TRUE(validate_schedule(s.snapshot(), active).ok());
      }
    }
  }
  EXPECT_TRUE(saw_multi_request_migration)
      << "trace never exercised a multi-request migration";
  EXPECT_GT(validated_mid_migration, 10u);
}

TEST(PartitionedRebuild, InterleavedChurnAtLevelBoundaries) {
  // Spans straddling the level-1/level-2 boundary (256): migrations must
  // interleave with inserts/deletes whose windows activate and deactivate
  // classes on both sides while the shadow generation catches up.
  SchedulerOptions options = base_options();
  options.rebuild_batch = 8;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);

  std::uint64_t next = 1;
  std::vector<std::pair<JobId, Window>> active;
  const Time spans[] = {64, 128, 256, 512, 1024};
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 220; ++i) {
      const Time span = spans[static_cast<std::size_t>(i) % 5];
      const Time start = (static_cast<Time>(i) % 16) * 1024;
      const JobId id{next++};
      s.insert(id, Window{start, start + span});
      active.emplace_back(id, Window{start, start + span});
      ASSERT_NO_THROW(s.verify_fulfillment_cache());
    }
    while (active.size() > 30) {
      s.erase(active.back().first);
      active.pop_back();
      ASSERT_NO_THROW(s.verify_fulfillment_cache());
    }
  }
  std::unordered_map<JobId, Window> remaining(active.begin(), active.end());
  EXPECT_TRUE(validate_schedule(s.snapshot(), remaining).ok());
}

TEST(PartitionedRebuild, DifferentialByteIdenticalWithStopTheWorld) {
  // The core acceptance test: same trace into a partitioned and a
  // stop-the-world scheduler; once the migration has drained, snapshots must be
  // byte-identical AND a probe suffix must elicit identical per-request
  // stats from both (the strongest observable proof the internal states
  // converged).
  SchedulerOptions partitioned_options = base_options();
  partitioned_options.rebuild_batch = 16;  // stretch the migrations
  SchedulerOptions stw_options = base_options();
  stw_options.rebuild_batch = kStopTheWorld;

  ReservationScheduler partitioned(partitioned_options);
  ReservationScheduler stw(stw_options);

  const auto trace = churn_trace(97, 3'000, 900);
  for (const Request& r : trace) {
    serve(partitioned, r);
    serve(stw, r);
  }

  // Drain any in-flight migration with neutral traffic both sides see.
  std::uint64_t next = 10'000'000;
  const auto drain = [&] {
    std::size_t settle = 0;
    while (partitioned.rebuild_in_flight() || partitioned.retired_pending()) {
      const JobId id{next++};
      const Request insert{RequestKind::kInsert, id, Window{0, 64}};
      const Request erase{RequestKind::kDelete, id, Window{}};
      serve(partitioned, insert);
      serve(stw, insert);
      serve(partitioned, erase);
      serve(stw, erase);
      ASSERT_LT(++settle, 10'000u) << "migration failed to drain";
    }
  };
  drain();

  ASSERT_NO_THROW(partitioned.audit());
  ASSERT_NO_THROW(stw.audit());
  expect_identical_snapshots(partitioned, stw, "post-drain");
  EXPECT_EQ(partitioned.n_star(), stw.n_star());
  EXPECT_EQ(partitioned.parked_jobs(), stw.parked_jobs());

  // Probe suffix: both schedulers must now behave identically request by
  // request — stats and snapshots.
  const auto probe = churn_trace(551, 600, 900);
  std::size_t compared = 0;
  for (const Request& r : probe) {
    // The probe generator is blind to the active set; skip requests that
    // do not apply (delete of unknown id / insert of an active id).
    const bool applies = r.kind == RequestKind::kInsert
                             ? partitioned.snapshot().find(r.job) == std::nullopt
                             : partitioned.snapshot().find(r.job) != std::nullopt;
    if (!applies) continue;
    const RequestStats a = serve(partitioned, r);
    const RequestStats b = serve(stw, r);
    // At the next n* boundary the two paths legitimately report the rebuild
    // cost at different requests (that deferral is the whole point); the
    // probe compares only the steady region and re-drains afterwards.
    if (a.rebuilt || b.rebuilt) break;
    EXPECT_EQ(a.reallocations, b.reallocations) << "probe request " << compared;
    EXPECT_EQ(a.degraded, b.degraded) << "probe request " << compared;
    EXPECT_EQ(a.levels_touched, b.levels_touched) << "probe request " << compared;
    ++compared;
  }
  EXPECT_GT(compared, 50u);
  drain();
  expect_identical_snapshots(partitioned, stw, "post-probe");
}

TEST(PartitionedRebuild, SmallSetsRebuildSynchronouslyLikeStopTheWorld) {
  // Active sets <= rebuild_batch flush their migration inside the boundary
  // request: per-request stats must match the stop-the-world pace exactly,
  // including the boundary request's rebuilt flag and moved count.
  ReservationScheduler partitioned(base_options());
  SchedulerOptions stw_options = base_options();
  stw_options.rebuild_batch = kStopTheWorld;
  ReservationScheduler stw(stw_options);

  for (unsigned i = 0; i < 40; ++i) {
    const Window w{0, 1024};
    const RequestStats a = partitioned.insert(JobId{i + 1}, w);
    const RequestStats b = stw.insert(JobId{i + 1}, w);
    EXPECT_EQ(a.rebuilt, b.rebuilt) << "insert " << i;
    EXPECT_EQ(a.reallocations, b.reallocations) << "insert " << i;
    EXPECT_FALSE(partitioned.rebuild_in_flight());
  }
  expect_identical_snapshots(partitioned, stw, "small-n");
}

TEST(PartitionedRebuild, BoundaryAndSwapRequestsReportRebuilt) {
  SchedulerOptions options = base_options();
  options.rebuild_batch = 8;
  ReservationScheduler s(options);

  // Ramp past the first asynchronous boundary (n* = 64 -> 128 at 65 jobs).
  std::vector<bool> rebuilt_flags;
  for (unsigned i = 0; i < 80; ++i) {
    rebuilt_flags.push_back(s.insert(JobId{i + 1}, Window{0, 4096}).rebuilt);
  }
  // The boundary request flips n* and reports rebuilt; the swap request
  // (several requests later, batch 8 over 64 jobs) reports rebuilt again
  // with the honest moved count.
  EXPECT_TRUE(rebuilt_flags[64]) << "boundary request must report rebuilt";
  EXPECT_TRUE(std::count(rebuilt_flags.begin() + 65, rebuilt_flags.end(), true) >= 1)
      << "swap request must report rebuilt";
  EXPECT_EQ(s.n_star(), 128u);
}

TEST(PartitionedRebuild, SetWithinOneBudgetFlipsInsideItsBoundaryRequest) {
  // The first doubling (9 jobs, default rebuild_batch 64) fits one
  // request's budget: the boundary request runs the whole migration and
  // flips, leaving only the retired generation's deferred trim behind.
  ReservationScheduler s(base_options());
  std::uint64_t next = 1;
  RequestStats stats;
  do {
    stats = s.insert(JobId{next++}, Window{0, 1024});
  } while (!stats.rebuilt);
  ASSERT_LE(s.active_jobs(), s.options().rebuild_batch);
  EXPECT_EQ(s.n_star(), 16u);
  EXPECT_FALSE(s.rebuild_in_flight()) << "boundary request left a migration in flight";
  EXPECT_TRUE(s.retired_pending()) << "the flip retired no generation";

  // Neutral insert/erase pairs: one trim step per request, no trigger.
  const unsigned levels = s.options().levels.level_count();
  for (unsigned i = 0; i <= levels && s.retired_pending(); ++i) {
    const JobId probe{next++};
    s.insert(probe, Window{0, 64});
    s.erase(probe);
  }
  EXPECT_FALSE(s.retired_pending()) << "deferred trim did not drain";
  ASSERT_NO_THROW(s.audit());
}

TEST(PartitionedRebuild, RetiredGenerationDrainsAndArenaStaysBounded) {
  // After a migration completes, the retired generation must drain within
  // a few requests (one level per request).
  SchedulerOptions options = base_options();
  options.rebuild_batch = 16;
  ReservationScheduler s(options);

  std::uint64_t next = 1;
  bool caught_mid_migration = false;
  for (unsigned i = 0; i < 280 && !caught_mid_migration; ++i) {
    const RequestStats stats = s.insert(JobId{next++}, Window{0, 4096});
    if (stats.rebuilt && s.rebuild_in_flight()) caught_mid_migration = true;
  }
  ASSERT_TRUE(caught_mid_migration) << "ramp never left a migration in flight";
  while (s.rebuild_in_flight()) s.insert(JobId{next++}, Window{0, 64});
  // The request that completed the swap parked the old generation; the
  // deferred trim must release it within a handful of requests (one level
  // each, then the old occupancy/job tables).
  EXPECT_TRUE(s.retired_pending());
  for (int i = 0; i < 8 && s.retired_pending(); ++i) {
    s.insert(JobId{next++}, Window{0, 64});
  }
  EXPECT_FALSE(s.retired_pending()) << "deferred trim did not drain";

  // Stop-the-world pace over repeated grow/shrink cycles: every flip
  // lands in its boundary request, each retired generation drains within
  // a few requests of its flip, and the live arenas reserve no more at the
  // end of a cycle than at the end of the first.
  SchedulerOptions stw_options = base_options();
  stw_options.rebuild_batch = kStopTheWorld;
  ReservationScheduler stw(stw_options);
  // One trim step per level, then the old occupancy/job tables.
  const unsigned levels = stw_options.levels.level_count();
  const std::size_t drain_requests = levels + 1;
  const auto reserved_total = [&stw, levels] {
    std::size_t total = 0;
    for (unsigned level = 1; level < levels; ++level) {
      total += stw.arena_stats(level).bytes_reserved;
    }
    return total;
  };
  std::size_t flips = 0;
  std::size_t since_flip = 0;
  const auto after_request = [&](const RequestStats& stats) {
    if (stats.rebuilt) {
      ++flips;
      since_flip = 0;
      EXPECT_FALSE(stw.rebuild_in_flight()) << "flip " << flips;
    } else if (++since_flip >= drain_requests) {
      EXPECT_FALSE(stw.retired_pending())
          << since_flip << " requests after flip " << flips;
    }
  };
  std::uint64_t id = 1;
  std::deque<JobId> active;
  std::vector<std::size_t> reserved;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (unsigned i = 0; i < 300; ++i) {
      const JobId job{id++};
      after_request(stw.insert(job, Window{0, 4096}));
      active.push_back(job);
    }
    while (active.size() > 20) {  // halving rebuilds
      after_request(stw.erase(active.front()));
      active.pop_front();
    }
    reserved.push_back(reserved_total());
  }
  EXPECT_GE(flips, 4u * 6) << "cycles never exercised the rebuild";
  ASSERT_GT(reserved.front(), 0u);
  for (std::size_t cycle = 1; cycle < reserved.size(); ++cycle) {
    EXPECT_LE(reserved[cycle], reserved.front()) << "arena grew by cycle " << cycle;
  }
}

TEST(PartitionedRebuild, HalvingBoundariesMigrateToo) {
  SchedulerOptions options = base_options();
  options.rebuild_batch = 8;
  options.audit_policy.mode = audit::Mode::kFull;
  ReservationScheduler s(options);

  std::vector<JobId> active;
  std::uint64_t next = 1;
  for (unsigned i = 0; i < 300; ++i) {
    const JobId id{next++};
    s.insert(id, Window{0, 2048});
    active.push_back(id);
  }
  bool saw_halving_migration = false;
  while (active.size() > 8) {
    const RequestStats stats = s.erase(active.back());
    active.pop_back();
    if (stats.rebuilt && s.rebuild_in_flight()) saw_halving_migration = true;
  }
  EXPECT_TRUE(saw_halving_migration);
  EXPECT_EQ(s.active_jobs(), active.size());
}

// Runs an insert ramp until one partitioned migration completes (the
// generation swap carried the shadow's audit dirt across); returns the
// scheduler mid-story. The policy never audits on its own (cadence 0), so
// the carried-over backlog is intact for the caller to drain by hand.
std::unique_ptr<ReservationScheduler> ramp_past_one_swap(std::size_t post_swap_budget) {
  SchedulerOptions options = base_options();
  options.rebuild_batch = 16;
  options.audit_policy.mode = audit::Mode::kIncremental;
  options.audit_policy.cadence = 0;  // engine ingests; the test drains
  options.audit_policy.post_swap_budget = post_swap_budget;
  auto s = std::make_unique<ReservationScheduler>(options);

  const auto trace = churn_trace(4242, 2'000, 900);
  bool was_in_flight = false;
  for (const Request& r : trace) {
    serve(*s, r);
    const bool in_flight = s->rebuild_in_flight();
    if (was_in_flight && !in_flight) return s;  // swap happened this request
    was_in_flight = in_flight;
  }
  ADD_FAILURE() << "trace never completed a partitioned migration";
  return s;
}

TEST(PartitionedRebuild, PostSwapAuditDrainIsPaced) {
  // The generation flip hands the live engine a whole migration window's
  // dirt. With a post_swap_budget the backlog must drain at most
  // budget-regions per audit call — across calls, never inside one — and
  // still converge to a clean, fully verified state.
  constexpr std::size_t kBudget = 8;
  auto s = ramp_past_one_swap(kBudget);
  const std::size_t backlog = s->audit_backlog();
  ASSERT_GT(backlog, 4 * kBudget) << "swap carried too little dirt to test pacing";

  std::size_t calls = 0;
  while (s->audit_backlog() > 0) {
    const std::uint64_t before = s->audit_work().regions_checked;
    ASSERT_NO_THROW(s->incremental_audit());
    const std::uint64_t checked = s->audit_work().regions_checked - before;
    ASSERT_LE(checked, kBudget) << "post-swap drain exceeded the pacing budget";
    ASSERT_LT(++calls, backlog + 16) << "paced drain failed to converge";
  }
  EXPECT_GE(calls, backlog / kBudget) << "backlog drained in too few calls";
  // Once the carry-over clears, pacing disengages and the state is clean.
  ASSERT_NO_THROW(s->audit());
  ASSERT_NO_THROW(s->verify_fulfillment_cache());
}

TEST(PartitionedRebuild, PostSwapPacingDisabledDrainsInOneCall) {
  // post_swap_budget = 0 restores the pre-pacing behavior: the first audit
  // after the swap verifies the entire carried-over backlog at once.
  auto s = ramp_past_one_swap(0);
  ASSERT_GT(s->audit_backlog(), 0u);
  ASSERT_NO_THROW(s->incremental_audit());
  EXPECT_EQ(s->audit_backlog(), 0u);
}

TEST(IncrementalRebuildAdapter, AdaptivePaceAvoidsWholeSetBursts) {
  // The even/odd adapter must never reach a re-trigger with a backlog (the
  // old "flush the whole pending set in one burst" path) on realistic
  // churn: the adaptive pace drains it first.
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  IncrementalRebuildScheduler s(options);

  ChurnParams params;
  params.seed = 23;
  params.requests = 4'000;
  params.target_active = 700;
  params.min_span = 64;
  params.max_span = 2048;
  params.aligned = true;
  const auto trace = make_churn_trace(params);

  std::size_t triggers = 0;
  for (const Request& r : trace) {
    const std::size_t backlog_before = s.pending_migrations();
    const RequestStats stats = r.kind == RequestKind::kInsert
                                   ? s.insert(r.job, r.window)
                                   : s.erase(r.job);
    if (stats.rebuilt) {
      ++triggers;
      EXPECT_EQ(backlog_before, 0u)
          << "re-trigger hit a live backlog: whole-set burst fired";
    }
  }
  EXPECT_GT(triggers, 3u) << "trace never exercised the adapter's triggers";
  s.audit();
}

}  // namespace
}  // namespace reasched
