// Differential guarantee of the incremental audit engine: it must accept /
// reject EXACTLY when the full O(state) sweep does — across random
// workloads (both accept everywhere), and under deliberate state
// corruption (both reject). The sharded half runs the service ledger's
// incremental audit against the full ledger sweep at 1/2/4/8 shards, with
// random batched workloads and injected ledger corruption.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

using Corruption = ReservationScheduler::Corruption;

/// Outcome of one auditor on the current state.
enum class Verdict { kAccept, kReject };

Verdict full_verdict(ReservationScheduler& scheduler) {
  try {
    scheduler.audit();
    return Verdict::kAccept;
  } catch (const InternalError&) {
    return Verdict::kReject;
  }
}

Verdict incremental_verdict(ReservationScheduler& scheduler) {
  try {
    scheduler.incremental_audit();
    return Verdict::kAccept;
  } catch (const InternalError&) {
    return Verdict::kReject;
  }
}

std::vector<Request> random_trace(std::size_t n, std::uint64_t seed) {
  ChurnParams params;
  params.seed = seed;
  params.target_active = n;
  params.requests = 3 * n;
  params.min_span = 64;
  params.max_span = 1024;
  params.aligned = true;
  return make_churn_trace(params);
}

TEST(AuditDifferential, RandomWorkloadsAgreeOnAccept) {
  for (const std::uint64_t seed : {7u, 23u, 101u}) {
    SchedulerOptions options;
    options.overflow = OverflowPolicy::kBestEffort;
    audit::AuditPolicy policy;
    policy.mode = audit::Mode::kIncremental;
    policy.cadence = 0;  // driven explicitly below
    options.audit_policy = policy;
    ReservationScheduler scheduler(options);

    const auto trace = random_trace(150, seed);
    std::size_t step = 0;
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
      // Both auditors on every single request: exact agreement, everywhere.
      ASSERT_EQ(incremental_verdict(scheduler), Verdict::kAccept)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(full_verdict(scheduler), Verdict::kAccept)
          << "seed " << seed << " step " << step;
      ++step;
    }
  }
}

/// Builds a scheduler with enough state that every corruption kind has a
/// target, engine attached and seeded (one audit drains the initial dirt).
std::unique_ptr<ReservationScheduler> corruptible_scheduler(bool parked_state) {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.trimming = false;  // keep windows/intervals stable for targeting
  audit::AuditPolicy policy;
  policy.mode = audit::Mode::kIncremental;
  policy.cadence = 0;
  options.audit_policy = policy;
  auto scheduler = std::make_unique<ReservationScheduler>(options);
  std::uint64_t next = 1;
  for (int i = 0; i < 24; ++i) {
    scheduler->insert(JobId{next++}, Window{0, 256});
  }
  if (parked_state) {
    // Overload a narrow region so some placements park.
    for (int i = 0; i < 64; ++i) {
      try {
        scheduler->insert(JobId{next++}, Window{0, 64});
      } catch (const InfeasibleError&) {
        break;
      }
    }
  }
  scheduler->incremental_audit();  // seed + verify the starting state
  return scheduler;
}

TEST(AuditDifferential, CorruptionsRejectedByBothAuditors) {
  const Corruption kinds[] = {
      Corruption::kFlipLowerOccupied, Corruption::kDesyncLowerCount,
      Corruption::kOrphanLedgerSlot, Corruption::kDesyncWindowJobs,
      Corruption::kDesyncParkedCount,
  };
  for (const Corruption kind : kinds) {
    // Two independent instances: one judged by the full sweep, one by the
    // incremental engine — the corruption must not survive either.
    for (const bool use_incremental : {false, true}) {
      auto scheduler = corruptible_scheduler(
          /*parked_state=*/kind == Corruption::kDesyncParkedCount);
      ASSERT_TRUE(scheduler->corrupt_for_test(kind))
          << "corruption kind " << static_cast<int>(kind) << " found no target";
      const Verdict verdict = use_incremental ? incremental_verdict(*scheduler)
                                              : full_verdict(*scheduler);
      EXPECT_EQ(verdict, Verdict::kReject)
          << (use_incremental ? "incremental" : "full")
          << " auditor accepted corruption kind " << static_cast<int>(kind);
    }
  }
}

TEST(AuditDifferential, StaleDirtSetCannotMaskASecondCorruption) {
  // Budgeted slicing leaves dirt behind; a corruption marked dirty must be
  // flagged no later than the drain that reaches it — never silently
  // dropped.
  auto scheduler = corruptible_scheduler(false);
  audit::AuditPolicy policy;
  policy.mode = audit::Mode::kIncremental;
  policy.cadence = 0;
  policy.budget = 1;  // one region per audit: worst case for staleness
  scheduler->set_audit_policy(policy);
  ASSERT_TRUE(scheduler->corrupt_for_test(Corruption::kDesyncLowerCount));
  bool rejected = false;
  for (int i = 0; i < 1000 && !rejected; ++i) {
    try {
      scheduler->incremental_audit();
    } catch (const InternalError&) {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "budgeted engine never reached the corrupt region";
}

// ------------------------------------------------------------- sharded half

std::vector<Request> batch_of(Rng& rng, std::vector<JobId>& active,
                              std::uint64_t& next, std::size_t count) {
  std::vector<Request> batch;
  for (std::size_t i = 0; i < count; ++i) {
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
  return batch;
}

TEST(AuditDifferential, ShardedLedgerAgreesAcrossShardCounts) {
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    ShardedScheduler::Options options;
    options.shards = shards;
    ShardedScheduler scheduler(
        8, [] { return std::make_unique<ReservationScheduler>(); }, options);

    Rng rng(1000 + shards);
    std::vector<JobId> active;
    std::uint64_t next = 1;
    for (int round = 0; round < 12; ++round) {
      const auto batch = batch_of(rng, active, next, 48);
      const BatchResult result = scheduler.apply(batch);
      ASSERT_TRUE(result.rejected.empty());
      // Both auditors accept after every batch (the incremental one checks
      // only the ledger's dirty windows).
      // Incremental FIRST: a successful full sweep discharges the dirty
      // queues, so the reverse order would hand the incremental path an
      // empty queue and verify nothing.
      EXPECT_NO_THROW(scheduler.audit_balance_incremental()) << "shards " << shards;
      EXPECT_NO_THROW(scheduler.audit_balance()) << "shards " << shards;
    }
    // A second incremental call with no intervening mutations has nothing
    // to verify.
    EXPECT_EQ(scheduler.audit_balance_incremental(), 0u);

    // Injected ledger corruption: both auditors must reject.
    ASSERT_TRUE(scheduler.corrupt_balance_for_test());
    EXPECT_THROW(scheduler.audit_balance(), InternalError) << "shards " << shards;
    EXPECT_THROW(scheduler.audit_balance_incremental(), InternalError)
        << "shards " << shards;
  }
}

TEST(AuditDifferential, ShardedLedgerCorruptionUnderChurn) {
  // Failure injection mid-workload: corrupt, keep serving one more batch
  // (the dirty marks must survive the churn), then audit.
  for (const unsigned shards : {2u, 8u}) {
    ShardedScheduler::Options options;
    options.shards = shards;
    ShardedScheduler scheduler(
        8, [] { return std::make_unique<ReservationScheduler>(); }, options);
    Rng rng(2000 + shards);
    std::vector<JobId> active;
    std::uint64_t next = 1;
    scheduler.apply(batch_of(rng, active, next, 64));
    EXPECT_NO_THROW(scheduler.audit_balance_incremental());
    ASSERT_TRUE(scheduler.corrupt_balance_for_test());
    // Keep serving before auditing — inserts into a disjoint window range,
    // so the corrupted window's (now inconsistent) share sets are not
    // touched by the serving path itself. The dirty mark must survive.
    std::vector<Request> inserts;
    for (int i = 0; i < 32; ++i) {
      const Time start = static_cast<Time>(10'000 + i) * 128;
      inserts.push_back(
          Request{RequestKind::kInsert, JobId{next++}, Window{start, start + 128}});
    }
    scheduler.apply(inserts);
    EXPECT_THROW(scheduler.audit_balance_incremental(), InternalError)
        << "shards " << shards;
  }
}

}  // namespace
}  // namespace reasched
