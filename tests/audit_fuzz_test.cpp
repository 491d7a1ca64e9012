// Audit event-coverage fuzz harness (ROADMAP item): the incremental audit
// engine trusts its event stream — every mutation path in the scheduler
// must fire the matching on_* event, or the engine's shadow counters and
// dirty sets silently diverge from reality. These suites turn that review
// discipline into a tested property: randomized operation *interleavings*
// (insert/erase phase storms, hotspot window reuse, id recycling, random
// batch slicing) run under AuditPolicy differential mode, where every
// incremental audit cross-runs the full O(state) sweep and throws if the
// two ever disagree. A mutation path that forgot its event shows up as a
// shadow-counter mismatch or as dirt the incremental pass never drained —
// either way, a loud InternalError here. The sharded half fuzzes the
// service ledger's dirty-window queue at 1/2/4 shards.
//
// ctest labels: slow + audit (CMakeLists.txt).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

struct FuzzOp {
  RequestKind kind = RequestKind::kInsert;
  JobId job{};
  Window window{};
};

/// Randomized operation interleavings with deliberately nasty shapes:
/// alternating insert-heavy / erase-heavy phases (forcing n* doublings AND
/// halvings mid-stream), hotspot bases shared by many windows (round-robin
/// reservation churn), erase of a *random* active job (not LIFO/FIFO), and
/// id recycling after erase (dirty-job retraction then re-mark).
std::vector<FuzzOp> make_fuzz_ops(std::uint64_t seed, std::size_t steps) {
  Rng rng(seed);
  std::vector<FuzzOp> ops;
  ops.reserve(steps);
  std::vector<std::pair<JobId, Window>> active;
  std::vector<JobId> recycled;
  std::uint64_t next_id = 1;
  double insert_bias = 0.85;

  for (std::size_t step = 0; step < steps; ++step) {
    if (step % 400 == 399) insert_bias = 1.15 - insert_bias;  // 0.85 <-> 0.30
    const bool insert = active.empty() || rng.chance(insert_bias);
    if (insert) {
      JobId id{next_id++};
      if (!recycled.empty() && rng.chance(0.25)) {
        id = recycled.back();  // recycle: erased ids return to the stream
        recycled.pop_back();
      }
      const Time span = Time{64} << rng.uniform(0, 5);  // 64..2048, aligned
      const Time base = rng.chance(0.4)
                            ? (static_cast<Time>(rng.uniform(0, 3)) * 8192)
                            : (static_cast<Time>(rng.uniform(0, 63)) * span);
      const Window window{base, base + span};
      ops.push_back({RequestKind::kInsert, id, window});
      active.emplace_back(id, window);
    } else {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform(0, static_cast<int>(active.size()) - 1));
      ops.push_back({RequestKind::kDelete, active[at].first, Window{}});
      recycled.push_back(active[at].first);
      active[at] = active.back();
      active.pop_back();
    }
  }
  return ops;
}

TEST(AuditEventCoverageFuzz, SingleMachineDifferentialInterleavings) {
  // Differential mode: every cadence-th request the incremental pass runs,
  // and (backlog permitting) the full sweep immediately cross-checks it.
  // Any mutation path that skipped its event diverges the shadows → throw.
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    SchedulerOptions options;
    options.overflow = OverflowPolicy::kBestEffort;
    options.rebuild_batch = 16;  // migrations span requests mid-fuzz
    options.audit_policy.mode = audit::Mode::kIncremental;
    options.audit_policy.cadence = 5;
    options.audit_policy.differential = true;
    ReservationScheduler scheduler(options);

    std::size_t rebuilds = 0;
    for (const FuzzOp& op : make_fuzz_ops(seed, 2'500)) {
      try {
        const RequestStats stats = op.kind == RequestKind::kInsert
                                       ? scheduler.insert(op.job, op.window)
                                       : scheduler.erase(op.job);
        rebuilds += stats.rebuilt ? 1 : 0;
      } catch (const InfeasibleError&) {
        // Overloaded interleaving; the state must still audit clean.
      }
    }
    EXPECT_GT(rebuilds, 2u) << "seed " << seed
                            << ": fuzz never crossed an n* boundary";
    ASSERT_NO_THROW(scheduler.incremental_audit()) << "seed " << seed;
    ASSERT_NO_THROW(scheduler.audit()) << "seed " << seed;
  }
}

TEST(AuditEventCoverageFuzz, BudgetedSlicesStayCoherentUnderFuzz) {
  // Budgeted + paced drains leave dirt behind by design; detection must be
  // delayed, never lost. Fuzz with small budgets, then drain everything
  // and demand full agreement at the end.
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.rebuild_batch = 16;
  options.audit_policy.mode = audit::Mode::kIncremental;
  options.audit_policy.cadence = 3;
  options.audit_policy.budget = 24;
  options.audit_policy.post_swap_budget = 8;
  ReservationScheduler scheduler(options);

  for (const FuzzOp& op : make_fuzz_ops(97, 2'500)) {
    try {
      if (op.kind == RequestKind::kInsert) {
        scheduler.insert(op.job, op.window);
      } else {
        scheduler.erase(op.job);
      }
    } catch (const InfeasibleError&) {
    }
  }
  std::size_t drains = 0;
  while (scheduler.audit_backlog() > 0) {
    ASSERT_NO_THROW(scheduler.incremental_audit());
    ASSERT_LT(++drains, 100'000u) << "backlog failed to converge";
  }
  ASSERT_NO_THROW(scheduler.audit());
  ASSERT_NO_THROW(scheduler.verify_fulfillment_cache());
}

TEST(AuditEventCoverageFuzz, ShardedLedgerDifferentialAtShardCounts) {
  // The service ledger's dirty-window queue sees the same fuzz through
  // random batch slicing; after every fifth slice both the incremental
  // audit and the full Lemma 3 sweep must accept, and the
  // per-machine engines run their own differential audits throughout.
  for (const unsigned shards : {1u, 2u, 4u}) {
    SchedulerOptions machine_options;
    machine_options.overflow = OverflowPolicy::kBestEffort;
    machine_options.audit_policy.mode = audit::Mode::kIncremental;
    machine_options.audit_policy.cadence = 16;
    machine_options.audit_policy.differential = true;
    ShardedScheduler::Options options;
    options.shards = shards;
    ShardedScheduler scheduler(
        4,
        [machine_options] {
          return std::make_unique<ReservationScheduler>(machine_options);
        },
        options);

    const auto ops = make_fuzz_ops(1'000 + shards, 2'000);
    std::vector<Request> requests;
    requests.reserve(ops.size());
    for (const FuzzOp& op : ops) requests.push_back({op.kind, op.job, op.window});

    Rng rng(555 + shards);
    std::size_t first = 0;
    std::size_t slices = 0;
    while (first < requests.size()) {
      const std::size_t len = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform(1, 64)), requests.size() - first);
      scheduler.apply({requests.data() + first, len});
      first += len;
      if (++slices % 5 == 0) {
        ASSERT_NO_THROW(scheduler.audit_balance_incremental()) << "shards " << shards;
        ASSERT_NO_THROW(scheduler.audit_balance()) << "shards " << shards;
      }
    }
    ASSERT_NO_THROW(scheduler.audit_balance_incremental()) << "shards " << shards;
    ASSERT_NO_THROW(scheduler.audit_balance()) << "shards " << shards;
  }
}

}  // namespace
}  // namespace reasched
