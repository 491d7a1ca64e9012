// Admission control + backpressure tests (ingest/admission.hpp,
// ingest/ingest_service.hpp):
//
//   * unit layer — the AdmissionController's depth and p99-budget verdicts,
//     epoch close/clear rules, and the drain-clears-shedding recovery
//     guarantee;
//   * service layer — queue-depth shedding with EXACT accounting (the
//     verdict is taken against the same counter the "ingest.queue.depth"
//     gauge mirrors: admitted + rejected reconciles to the push count, and
//     the in-flight count never exceeds the threshold), producers admitted
//     again after drain, latency shedding that recovers once the backlog
//     is gone — and, when telemetry is compiled in, the operator's view of
//     both: the ingest.rejected_depth_total / ingest.shed_total counters
//     move by exactly the rejected pushes, and the ingest.p99_compliant
//     gauge reads 0 while shedding and 1 after recovery;
//   * batch close rule — a lone request is applied as soon as the lanes
//     run empty (not on the deadline), a backlog still closes full
//     batches on size, and a ticket gap holds later tickets until filled;
//   * crash lane (PR-6 crashpoint harness, fork + _exit(137) mid
//     WAL-frame) — a crash under concurrent ingestion recovers to exactly
//     the durable ticket prefix, scheduler-level rejections are
//     deterministically re-rejected during replay (RecoveryReport::
//     rejected_replays), and admission-rejected pushes are re-rejected *by
//     absence*: they never claimed a CSN, so no replay can resurrect them.
//
// ctest labels: fast + crash (CMakeLists.txt).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/naive_scheduler.hpp"
#include "durability/crashpoint.hpp"
#include "durability/wal.hpp"
#include "ingest/ingest_service.hpp"
#include "service/sharded_scheduler.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

using durability::CrashPoint;
using durability::DurabilityPolicy;
using ingest::Admit;
using ingest::AdmissionController;
using ingest::IngestOptions;
using ingest::IngestService;
using ingest::IngestStats;

// ------------------------------------------------------------- unit layer

TEST(AdmissionController, DepthThresholdIsExactAtTheBoundary) {
  AdmissionController::Options options;
  options.max_queue_depth = 4;
  AdmissionController admission(options);
  EXPECT_EQ(admission.admit(0), Admit::kAdmitted);
  EXPECT_EQ(admission.admit(3), Admit::kAdmitted);
  EXPECT_EQ(admission.admit(4), Admit::kRejectedDepth);
  EXPECT_EQ(admission.admit(1000), Admit::kRejectedDepth);
}

TEST(AdmissionController, DisabledThresholdsAlwaysAdmit) {
  AdmissionController admission(AdmissionController::Options{});
  EXPECT_EQ(admission.admit(1u << 30), Admit::kAdmitted);
  admission.observe(1'000'000'000);  // no budget: observation is a no-op
  admission.evaluate(1u << 30);
  EXPECT_FALSE(admission.shedding());
}

TEST(AdmissionController, LatencyEpochShedsAndRecoversOnCompliantEpoch) {
  AdmissionController::Options options;
  options.p99_budget_ns = 10'000;
  options.epoch_samples = 4;
  AdmissionController admission(options);

  // Not enough samples: no verdict change.
  admission.observe(1'000'000);
  admission.evaluate(/*depth=*/8);
  EXPECT_FALSE(admission.shedding());

  for (int i = 0; i < 3; ++i) admission.observe(1'000'000);
  admission.evaluate(8);  // epoch closes over budget
  EXPECT_TRUE(admission.shedding());
  EXPECT_GT(admission.last_p99_ns(), options.p99_budget_ns);
  EXPECT_EQ(admission.admit(0), Admit::kRejectedLatency);

  // A compliant epoch clears the verdict.
  for (int i = 0; i < 4; ++i) admission.observe(1'000);
  admission.evaluate(8);
  EXPECT_FALSE(admission.shedding());
  EXPECT_EQ(admission.admit(0), Admit::kAdmitted);
}

TEST(AdmissionController, DrainClearsSheddingWithoutSamples) {
  AdmissionController::Options options;
  options.p99_budget_ns = 10'000;
  options.epoch_samples = 4;
  AdmissionController admission(options);
  for (int i = 0; i < 4; ++i) admission.observe(1'000'000);
  admission.evaluate(8);
  ASSERT_TRUE(admission.shedding());

  // All producers are being shed: no samples will ever arrive. A non-empty
  // queue keeps the verdict...
  admission.evaluate(3);
  EXPECT_TRUE(admission.shedding());
  // ...but a fully drained queue clears it — the recovery guarantee.
  admission.evaluate(0);
  EXPECT_FALSE(admission.shedding());
}

// ---------------------------------------------------------- service layer

ShardedScheduler::Factory naive_factory() {
  return [] { return std::make_unique<NaiveScheduler>(); };
}

Request wide_insert(std::uint64_t id) {
  return Request::insert(JobId{id}, 0, 1024);
}

/// Process-wide value of the counter or gauge `name` (0 before its first
/// record).
std::int64_t metric(const std::string& name) {
  const telemetry::Registry::Snapshot snap = telemetry::Registry::global().snapshot();
  for (const auto& [counter, value] : snap.counters) {
    if (counter == name) return static_cast<std::int64_t>(value);
  }
  for (const auto& [gauge, value] : snap.gauges) {
    if (gauge == name) return value;
  }
  return 0;
}

TEST(IngestAdmission, DepthSheddingHasExactAccountingAndUnblocksAfterDrain) {
  ShardedScheduler sharded(1, naive_factory());
  IngestOptions options;
  options.max_queue_depth = 8;
  options.lanes = 1;
  options.lane_capacity = 64;
  options.record_stats = true;
  options.telemetry.enabled = true;
  const std::int64_t depth_before = metric("ingest.rejected_depth_total");
  const std::int64_t shed_before = metric("ingest.shed_total");
  IngestService service(sharded, options);

  // Park the consumer first (and give it a beat to observe the flag), so
  // the queue depth the verdicts see is exactly the number of pushes.
  service.pause_consumer();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::uint64_t id = 1;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(service.push(wide_insert(id++)), Admit::kAdmitted) << i;
  }
  EXPECT_EQ(service.queue_depth(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service.push(wide_insert(id++)), Admit::kRejectedDepth) << i;
  }
  // Exact reconciliation: every push accounted, none in flight beyond the
  // threshold, rejected pushes left no queue entry and no ticket.
  IngestStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 8u);
  EXPECT_EQ(stats.rejected_depth, 4u);
  EXPECT_EQ(stats.rejected_latency, 0u);
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(service.queue_depth(), 8u);
  EXPECT_EQ(metric("ingest.rejected_depth_total") - depth_before,
            static_cast<std::int64_t>(stats.rejected_depth));
  EXPECT_EQ(metric("ingest.shed_total") - shed_before, 0);

  service.resume_consumer();
  service.drain();
  stats = service.stats();
  EXPECT_EQ(stats.applied, 8u);
  EXPECT_EQ(service.queue_depth(), 0u);

  // Producers unblock after drain: depth is back under the threshold.
  EXPECT_EQ(service.push(wide_insert(id++)), Admit::kAdmitted);
  service.drain();
  service.stop();
  EXPECT_EQ(service.applied_stats().size(), 9u);
  EXPECT_EQ(sharded.active_jobs(), 9u);
}

TEST(IngestAdmission, LatencySheddingRejectsThenRecoversOnceDrained) {
  ShardedScheduler sharded(1, naive_factory());
  IngestService* parked = nullptr;
  IngestOptions options;
  options.p99_budget_us = 1;  // any real sojourn blows this budget
  options.admission_epoch_samples = 8;
  options.max_batch = 8;
  options.lanes = 1;
  options.telemetry.enabled = true;
  // Park the consumer after the first batch. That batch closes the
  // admission epoch with one request still queued, so the drain rule
  // cannot clear the verdict while this thread observes it.
  options.on_batch = [&parked](std::span<const Request>, const BatchResult&,
                               std::uint64_t first_ticket) {
    if (first_ticket == 0) parked->pause_consumer();
  };
  const std::int64_t depth_before = metric("ingest.rejected_depth_total");
  const std::int64_t shed_before = metric("ingest.shed_total");
  IngestService service(sharded, options);
  parked = &service;  // published to the consumer by the first push

  // Queue 9 requests behind a parked consumer (given a beat to observe the
  // flag), so the first batch is exactly one epoch of 8.
  service.pause_consumer();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::uint64_t id = 1;
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(service.push(wide_insert(id++)), Admit::kAdmitted) << i;
  }
  service.resume_consumer();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!service.admission().shedding()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the over-budget epoch never closed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Shedding, deterministically: the parked consumer evaluates nothing.
  std::uint64_t shed = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service.push(wide_insert(id)), Admit::kRejectedLatency) << i;
    ++shed;
  }
  EXPECT_EQ(service.queue_depth(), 1u);
  EXPECT_EQ(metric("ingest.p99_compliant"), 0);

  // Recovery: applying the last queued request drains the queue, and the
  // drain rule admits producers again — bounded wait. Count the pushes
  // shed meanwhile so the accounting check below stays exact in every
  // schedule.
  service.resume_consumer();
  for (;;) {
    const Admit verdict = service.push(wide_insert(id));
    if (verdict == Admit::kAdmitted) break;
    ASSERT_EQ(verdict, Admit::kRejectedLatency);
    ++shed;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "latency shedding never cleared after drain";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  service.drain();
  // The over-budget witness: written at epoch close, synchronized to us by
  // the drain handshake, and left alone by the drain rule.
  EXPECT_GT(service.admission().last_p99_ns(), 1'000u);
  // The consumer refreshes the gauge right after it clears the verdict;
  // stop() would unwind this service's contribution, so read it first.
  while (metric("ingest.p99_compliant") != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "ingest.p99_compliant never read 1 after recovery";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.stop();
  const IngestStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 10u);
  EXPECT_EQ(stats.applied, 10u);
  EXPECT_EQ(stats.rejected_depth, 0u);
  EXPECT_EQ(stats.rejected_latency, shed);
  EXPECT_GT(stats.rejected_latency, 0u);
  EXPECT_EQ(metric("ingest.shed_total") - shed_before,
            static_cast<std::int64_t>(stats.rejected_latency));
  EXPECT_EQ(metric("ingest.rejected_depth_total") - depth_before, 0);
}

// ------------------------------------------------------ batch close rule

/// Polls until `service` applied `count` requests; false after `timeout`.
bool applied_within(const IngestService& service, std::uint64_t count,
                    std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (service.stats().applied < count) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(IngestBatching, EmptyLanesCloseTheBatchWithoutWaitingOutTheDeadline) {
  ShardedScheduler sharded(1, naive_factory());
  IngestOptions options;
  options.batch_deadline_us = 10'000'000;
  IngestService service(sharded, options);

  ASSERT_EQ(service.push(wide_insert(1)), Admit::kAdmitted);
  EXPECT_TRUE(applied_within(service, 1, std::chrono::milliseconds(100)))
      << "a lone request waited on the 10 s deadline";
  service.stop();
  const IngestStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deadline_closes, 0u);
  EXPECT_EQ(stats.size_closes, 0u);
}

TEST(IngestBatching, BacklogStillFormsFullBatches) {
  constexpr std::size_t kBatch = 16;
  ShardedScheduler sharded(1, naive_factory());
  IngestOptions options;
  options.lanes = 1;
  options.max_batch = kBatch;
  IngestService service(sharded, options);

  service.pause_consumer();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (std::uint64_t id = 1; id <= 3 * kBatch; ++id) {
    ASSERT_EQ(service.push(wide_insert(id)), Admit::kAdmitted);
  }
  service.resume_consumer();
  service.drain();
  const IngestStats stats = service.stats();
  EXPECT_EQ(stats.applied, 3 * kBatch);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.size_closes, 3u);
  EXPECT_EQ(stats.deadline_closes, 0u);
  EXPECT_EQ(stats.max_batch, kBatch);
}

TEST(IngestBatching, TicketGapHoldsLaterTicketsUntilFilled) {
  const std::vector<Request> requests = {Request::insert(JobId{1}, 0, 2),
                                         Request::insert(JobId{2}, 0, 1),
                                         Request::erase(JobId{1})};
  ShardedScheduler sharded(1, naive_factory());
  IngestOptions options;
  options.external_sequencing = true;
  options.record_stats = true;
  options.batch_deadline_us = 10'000'000;
  IngestService service(sharded, options);

  service.push_sequenced(0, requests[0]);
  service.push_sequenced(2, requests[2]);
  EXPECT_TRUE(applied_within(service, 1, std::chrono::milliseconds(100)))
      << "ticket 0 waited on the deadline";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(service.stats().applied, 1u) << "ticket 2 was applied before ticket 1";
  service.push_sequenced(1, requests[1]);
  service.drain();
  service.stop();

  ShardedScheduler sequential(1, naive_factory());
  ASSERT_EQ(service.applied_stats().size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const BatchResult want = sequential.apply(std::span<const Request>(&requests[i], 1));
    const RequestStats& got = service.applied_stats()[i];
    EXPECT_EQ(got.reallocations, want.stats[0].reallocations) << i;
    EXPECT_EQ(got.migrations, want.stats[0].migrations) << i;
    EXPECT_EQ(got.levels_touched, want.stats[0].levels_touched) << i;
  }
  EXPECT_TRUE(service.rejected_tickets().empty());
  EXPECT_EQ(sharded.active_jobs(), sequential.active_jobs());
}

// ------------------------------------------------------------- crash lane

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/reasched-ingest-crash-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    std::system(cmd.c_str());  // NOLINT: test scratch cleanup
  }
};

DurabilityPolicy wal_policy(const std::string& dir) {
  DurabilityPolicy policy;
  policy.dir = dir;
  policy.frame_bytes = 256;  // many frames → many "wal.frame" hits
  policy.sync_every = 1;
  return policy;
}

/// Deterministic trace with scheduler-level rejections up front: window
/// [0,4) across 2 machines offers 8 slots, so the inserts at trace
/// positions 8 and 9 are infeasible no matter how batches split (the
/// window is completely full once jobs 1..8 land); positions 10+ churn a
/// wide window feasibly (insert 100..179, erase the even ones). No moot
/// deletes, so CSN i+1 always corresponds to trace position i.
std::vector<Request> crash_trace() {
  std::vector<Request> trace;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    trace.push_back(Request::insert(JobId{id}, 0, 4));
  }
  for (std::uint64_t id = 100; id < 180; ++id) {
    trace.push_back(Request::insert(JobId{id}, 4, 1024));
  }
  for (std::uint64_t id = 100; id < 180; id += 2) {
    trace.push_back(Request::erase(JobId{id}));
  }
  return trace;
}

std::size_t expected_rejections_in_prefix(std::uint64_t cut) {
  std::size_t expected = 0;
  if (cut > 8) ++expected;  // trace position 8: insert of JobId 9
  if (cut > 9) ++expected;  // trace position 9: insert of JobId 10
  return expected;
}

ShardedScheduler::Options wal_scheduler_options(const std::string& dir) {
  ShardedScheduler::Options options;
  options.shards = 2;
  options.wal = wal_policy(dir);
  return options;
}

void serve_tolerant(IReallocScheduler& scheduler, const Request& request) {
  if (request.kind == RequestKind::kInsert) {
    try {
      scheduler.insert(request.job, request.window);
    } catch (const InfeasibleError&) {
    }
  } else {
    scheduler.erase(request.job);
  }
}

void expect_identical_schedules(const Schedule& a, const Schedule& b,
                                const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (const auto& [id, placement] : a.assignments()) {
    const auto other = b.find(id);
    ASSERT_TRUE(other.has_value()) << where << ": job " << id.value;
    EXPECT_EQ(placement.machine, other->machine) << where << ": job " << id.value;
    EXPECT_EQ(placement.slot, other->slot) << where << ": job " << id.value;
  }
}

/// Child: serve `trace` through the concurrent ingest front end (2
/// producers, external sequencing → CSN order = trace order) with the
/// "wal.frame" crashpoint armed, dying mid-frame via _exit(137).
bool run_ingest_child_until_crash(const std::string& dir,
                                  const std::vector<Request>& trace,
                                  std::uint64_t countdown) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    try {
      CrashPoint::arm("wal.frame", countdown);
      auto naive = [] { return std::make_unique<NaiveScheduler>(); };
      ShardedScheduler sharded(2, naive, wal_scheduler_options(dir));
      IngestOptions options;
      options.external_sequencing = true;
      options.lanes = 2;
      options.max_batch = 8;
      IngestService service(sharded, options);
      std::vector<std::thread> producers;
      for (std::size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
          for (std::size_t i = p; i < trace.size(); i += 2) {
            service.push_sequenced(i, trace[i]);
          }
        });
      }
      for (auto& producer : producers) producer.join();
      service.drain();
      service.stop();
      sharded.sync_wal();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "ingest crash child: %s\n", error.what());
      ::_exit(1);
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
  const int code = WEXITSTATUS(status);
  EXPECT_TRUE(code == 0 || code == CrashPoint::kExitStatus)
      << "child failed (exit " << code << ") rather than crashing on cue";
  return code == CrashPoint::kExitStatus;
}

TEST(IngestAdmissionCrash, RecoveryReplaysDurablePrefixAndReRejects) {
  const std::vector<Request> trace = crash_trace();
  auto naive = [] { return std::make_unique<NaiveScheduler>(); };
  for (const std::uint64_t countdown : {2ull, 9ull, 23ull, 1'000'000ull}) {
    TempDir dir;
    const bool crashed =
        run_ingest_child_until_crash(dir.path, trace, countdown);
    const std::string where =
        "countdown=" + std::to_string(countdown) +
        (crashed ? "" : " (ran to completion)");

    // Recovery: construction replays the log's intact CSN prefix; tickets were
    // external, so the prefix is exactly trace[0, cut).
    ShardedScheduler recovered(2, naive, wal_scheduler_options(dir.path));
    const std::uint64_t cut = recovered.csn();
    ASSERT_LE(cut, trace.size()) << where;
    if (!crashed) {
      EXPECT_EQ(cut, trace.size()) << where;
    }

    // Scheduler-level rejections re-reject deterministically on replay.
    EXPECT_EQ(recovered.recovery_report().rejected_replays,
              expected_rejections_in_prefix(cut))
        << where;

    ShardedScheduler twin(2, naive);
    for (std::uint64_t i = 0; i < cut; ++i) serve_tolerant(twin, trace[i]);
    expect_identical_schedules(twin.snapshot(), recovered.snapshot(), where);
    EXPECT_EQ(twin.active_jobs(), recovered.active_jobs()) << where;
    recovered.audit_balance();

    // Both keep serving the suffix in lockstep.
    for (std::uint64_t i = cut; i < trace.size(); ++i) {
      serve_tolerant(twin, trace[i]);
      serve_tolerant(recovered, trace[i]);
    }
    expect_identical_schedules(twin.snapshot(), recovered.snapshot(),
                               where + " (post-crash suffix)");
    recovered.audit_balance();
  }
}

TEST(IngestAdmissionCrash, AdmissionRejectedPushesAreAbsentFromReplay) {
  TempDir dir;
  auto naive = [] { return std::make_unique<NaiveScheduler>(); };
  std::vector<std::uint64_t> admitted_ids;
  {
    ShardedScheduler sharded(1, naive, wal_scheduler_options(dir.path));
    IngestOptions options;
    options.max_queue_depth = 4;
    options.lanes = 1;
    IngestService service(sharded, options);
    service.pause_consumer();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // 4 admitted (tickets + CSNs), 4 rejected at admission: the rejected
    // pushes never claim a CSN and never reach the WAL.
    for (std::uint64_t id = 1; id <= 8; ++id) {
      if (service.push(wide_insert(id)) == Admit::kAdmitted) {
        admitted_ids.push_back(id);
      }
    }
    ASSERT_EQ(admitted_ids.size(), 4u);
    service.resume_consumer();
    service.drain();
    service.stop();
    sharded.sync_wal();
    EXPECT_EQ(sharded.csn(), 4u);
  }

  // Replay: exactly the admitted pushes come back — the rejected ones are
  // re-rejected by absence, deterministically.
  ShardedScheduler recovered(1, naive, wal_scheduler_options(dir.path));
  EXPECT_EQ(recovered.csn(), 4u);
  EXPECT_EQ(recovered.recovery_report().replayed, 4u);
  EXPECT_EQ(recovered.active_jobs(), admitted_ids.size());
  const Schedule snapshot = recovered.snapshot();
  for (const std::uint64_t id : admitted_ids) {
    EXPECT_TRUE(snapshot.find(JobId{id}).has_value()) << "job " << id;
  }
  EXPECT_EQ(snapshot.size(), admitted_ids.size());
}

}  // namespace
}  // namespace reasched
