// Kill-at-random-point crash-recovery differentials (DESIGN.md §9).
//
// Each case forks a child that runs a churn workload against the durable
// front end — a ShardedScheduler with a WAL and snapshots, on one machine
// served one request at a time, or on four machines and two shards served
// in batches — with a CrashPoint armed at a random countdown. The child
// dies mid-WAL-frame, mid-snapshot-write, just before a snapshot rename,
// or just before a flip snapshot, via _exit(137) with no cleanup, exactly
// like SIGKILL landing mid-syscall. The parent then recovers from whatever
// the child left on disk and compares against an uninterrupted twin (the
// same machines, no WAL) that served the same durable prefix [1, last_csn]
// one request at a time:
//
//   * schedules byte-identical (machine + slot for every job),
//   * scalar state identical per machine (n*, parked), and active jobs,
//   * the full invariant audit passes on every recovered machine,
//   * both keep serving the remaining trace suffix in lockstep.
//
// The full matrix (seeds × kill sites, >= 32 seeds) carries the "slow"
// ctest label; CI's PR gate runs the *Fast* subset (see CMakeLists.txt).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "durability/crashpoint.hpp"
#include "durability/recovery.hpp"
#include "durability/wal.hpp"
#include "service/reallocating_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace reasched {
namespace {

using durability::CrashPoint;
using durability::DurabilityPolicy;

/// One crash-matrix configuration: the machine count, the apply threads,
/// and the batch the child serves in (0 = one request at a time).
struct Setup {
  unsigned machines = 1;
  unsigned shards = 1;
  std::size_t batch = 0;
};
constexpr Setup kOneMachine{};
constexpr Setup kFourMachines{4, 2, 64};

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/reasched-crash-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    std::system(cmd.c_str());  // NOLINT: test scratch cleanup
  }
};

std::vector<Request> churn_trace(std::uint64_t seed, unsigned machines = 1) {
  ChurnParams params;
  params.seed = seed;
  params.requests = 3'000;
  params.target_active = 512;
  params.machines = machines;
  params.min_span = 64;
  params.max_span = 4096;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

SchedulerOptions base_options() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.rebuild_batch = 32;
  return options;
}

DurabilityPolicy crash_policy(const std::string& dir) {
  DurabilityPolicy policy;
  policy.dir = dir;
  policy.frame_bytes = 512;   // many frames → many "wal.frame" hits
  policy.sync_every = 1;      // every frame durable: crash loses <1 frame
  policy.snapshot_every = 400;
  policy.snapshot_on_flip = true;
  policy.keep_snapshots = 3;
  return policy;
}

/// A ShardedScheduler of `setup`'s shape, durable in `dir` when given. The
/// factory keeps every machine it builds; once construction returns, the
/// last setup.machines of them are the service's (recovery builds a fresh
/// set per snapshot attempt).
struct Service {
  std::vector<ReservationScheduler*> built;
  ShardedScheduler scheduler;

  Service(const Setup& setup, const std::string* dir)
      : scheduler(setup.machines,
                  [this] {
                    auto machine = std::make_unique<ReservationScheduler>(base_options());
                    built.push_back(machine.get());
                    return machine;
                  },
                  options(setup, dir)) {}

  ReservationScheduler& machine(unsigned index) {
    return *built[built.size() - scheduler.machines() + index];
  }

  static ShardedScheduler::Options options(const Setup& setup, const std::string* dir) {
    ShardedScheduler::Options options;
    options.shards = setup.shards;
    if (dir != nullptr) options.wal = crash_policy(*dir);
    return options;
  }
};

void serve_tolerant(IReallocScheduler& s, const Request& r) {
  if (r.kind == RequestKind::kInsert) {
    try {
      s.insert(r.job, r.window);
    } catch (const InfeasibleError&) {
      // Best-effort churn may still reject; the WAL records it either way.
    }
  } else {
    s.erase(r.job);
  }
}

void expect_identical_schedules(const Schedule& sa, const Schedule& sb,
                                const std::string& where) {
  ASSERT_EQ(sa.size(), sb.size()) << where;
  for (const auto& [id, placement] : sa.assignments()) {
    const auto other = sb.find(id);
    ASSERT_TRUE(other.has_value()) << where << ": job " << id.value;
    EXPECT_EQ(placement.machine, other->machine) << where << ": job " << id.value;
    EXPECT_EQ(placement.slot, other->slot) << where << ": job " << id.value;
  }
}

/// Forks a child that serves `trace` with `site` armed at `countdown`.
/// Returns true when the child actually died at the crashpoint (it may
/// finish the whole trace first when the countdown exceeds the number of
/// hits — the matrix spans countdowns on purpose, so both happen).
bool run_child_until_crash(const std::string& dir, const Setup& setup,
                           const std::vector<Request>& trace, const char* site,
                           std::uint64_t countdown) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child. No gtest machinery in here: any throw or assert-failure must
    // surface as a non-137 exit so the parent flags it.
    try {
      CrashPoint::arm(site, countdown);
      Service durable(setup, &dir);
      ShardedScheduler& service = durable.scheduler;
      // Resume from the recovered CSN: requests [1, csn] are already in the
      // durable state (a fresh dir recovers to 0 and serves everything).
      for (std::size_t i = service.csn(); i < trace.size();) {
        if (setup.batch == 0) {
          serve_tolerant(service, trace[i++]);
          continue;
        }
        const std::size_t n = std::min(setup.batch, trace.size() - i);
        service.apply({trace.data() + i, n});
        i += n;
      }
      service.sync_wal();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "crash child: %s\n", error.what());
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

/// The differential: recover from `dir`, rebuild a twin from the trace
/// prefix [1, last_csn] through the same machines without a WAL, compare
/// exhaustively, then run BOTH through the rest of the trace and compare
/// again.
void verify_recovery(const std::string& dir, const Setup& setup,
                     const std::vector<Request>& trace, const std::string& where) {
  Service recovered(setup, &dir);
  const std::uint64_t cut = recovered.scheduler.csn();
  ASSERT_LE(cut, trace.size()) << where;

  Service twin(setup, nullptr);
  for (std::uint64_t i = 0; i < cut; ++i) serve_tolerant(twin.scheduler, trace[i]);

  const auto compare = [&](const std::string& when) {
    expect_identical_schedules(twin.scheduler.snapshot(), recovered.scheduler.snapshot(),
                               when);
    EXPECT_EQ(twin.scheduler.active_jobs(), recovered.scheduler.active_jobs()) << when;
    for (unsigned m = 0; m < setup.machines; ++m) {
      EXPECT_EQ(twin.machine(m).n_star(), recovered.machine(m).n_star()) << when;
      EXPECT_EQ(twin.machine(m).parked_jobs(), recovered.machine(m).parked_jobs()) << when;
      recovered.machine(m).audit();
    }
    recovered.scheduler.audit_balance();
  };
  compare(where);

  for (std::uint64_t i = cut; i < trace.size(); ++i) {
    serve_tolerant(twin.scheduler, trace[i]);
    serve_tolerant(recovered.scheduler, trace[i]);
  }
  compare(where + " (post-crash suffix)");
}

constexpr const char* kSites[] = {"wal.frame", "snapshot.mid", "snapshot.rename",
                                  "flip"};

/// One matrix cell: crash seed `seed` at `site`, recover, differential.
/// Returns whether the child died at the crashpoint.
bool kill_and_recover(std::uint64_t seed, const char* site,
                      const Setup& setup = kOneMachine) {
  TempDir dir;
  const std::vector<Request> trace = churn_trace(seed, setup.machines);
  // Countdown sampled per (seed, site): early, mid, and late kills all
  // occur across the matrix. Snapshot sites are hit a few to tens of times
  // per run, "wal.frame" about 160 times (3,000 records in 512-byte frames).
  Rng rng(seed * 1000003 + std::hash<std::string_view>{}(site));
  const bool frequent = std::string_view(site) == "wal.frame";
  const std::uint64_t countdown = rng.uniform(1, frequent ? 128 : 6);

  const bool crashed = run_child_until_crash(dir.path, setup, trace, site, countdown);
  const std::string where = std::string(site) + " seed=" + std::to_string(seed) +
                            " machines=" + std::to_string(setup.machines) +
                            " countdown=" + std::to_string(countdown) +
                            (crashed ? "" : " (ran to completion)");
  verify_recovery(dir.path, setup, trace, where);
  return crashed;
}

/// The fast gate's slice for one kill site: two seeds, at least one of
/// which must actually die there.
void kill_two_seeds(const char* site, const Setup& setup = kOneMachine) {
  bool crashed = false;
  for (std::uint64_t seed : {1u, 2u}) crashed = kill_and_recover(seed, site, setup) || crashed;
  EXPECT_TRUE(crashed) << site << ": no child reached the crashpoint";
}

// ---------------------------------------------------------- fast PR gate

// A 2-seed slice of the matrix per kill site — fast enough for the PR
// gate, still exercising every crashpoint and the full differential.
TEST(CrashRecoveryFast, WalFrame) { kill_two_seeds("wal.frame"); }
TEST(CrashRecoveryFast, SnapshotMid) { kill_two_seeds("snapshot.mid"); }
TEST(CrashRecoveryFast, SnapshotRename) { kill_two_seeds("snapshot.rename"); }
TEST(CrashRecoveryFast, GenerationFlip) { kill_two_seeds("flip"); }

// The service snapshot on four machines and two shards, served in batches:
// one file holds every machine's image and the ledger.
TEST(CrashRecoveryFast, ShardedSnapshotMid) { kill_two_seeds("snapshot.mid", kFourMachines); }
TEST(CrashRecoveryFast, ShardedSnapshotRename) {
  kill_two_seeds("snapshot.rename", kFourMachines);
}

// Crash during *recovery's own* compensating work: kill a child that is
// itself recovering from a crashed directory, then recover again.
TEST(CrashRecoveryFast, CrashDuringRecovery) {
  TempDir dir;
  const std::vector<Request> trace = churn_trace(99);
  ASSERT_TRUE(run_child_until_crash(dir.path, kOneMachine, trace, "wal.frame", 40));
  // Second child: recovers the torn dir, keeps serving, dies again later.
  ASSERT_TRUE(run_child_until_crash(dir.path, kOneMachine, trace, "wal.frame", 60));
  verify_recovery(dir.path, kOneMachine, trace, "double crash");
}

// ------------------------------------------------------- full kill matrix

// >= 32 seeds x 4 kill sites, randomized countdowns, on one machine; and
// 8 seeds x 4 kill sites on four machines. Slow lane only.
TEST(CrashRecoveryMatrix, KillAtRandomPoints) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    for (const char* site : kSites) {
      kill_and_recover(seed, site);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CrashRecoveryMatrix, ShardedKillAtRandomPoints) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const char* site : kSites) {
      kill_and_recover(seed, site, kFourMachines);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Sharded service tier: kill mid-frame while the service's log is being
// written from batched applies; construction-is-recovery must converge to
// the log's intact CSN prefix and pass the balance audit.
TEST(CrashRecoveryMatrix, ShardedKillMidBatch) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    TempDir dir;
    ChurnParams params;
    params.seed = seed;
    params.requests = 2'000;
    params.target_active = 512;
    params.machines = 8;
    params.min_span = 64;
    params.max_span = 2048;
    const std::vector<Request> trace = make_churn_trace(params);

    const SchedulerOptions machine_options = base_options();
    const auto factory = [&] {
      return std::make_unique<ReservationScheduler>(machine_options);
    };
    ShardedScheduler::Options options;
    options.shards = 4;
    options.wal = DurabilityPolicy{};
    options.wal->dir = dir.path;
    options.wal->frame_bytes = 256;
    options.wal->sync_every = 1;

    const pid_t pid = ::fork();
    if (pid == 0) {
      try {
        CrashPoint::arm("wal.frame", 20 + seed * 7);
        ShardedScheduler sharded(8, factory, options);
        for (std::size_t i = 0; i < trace.size(); i += 64) {
          const std::size_t n = std::min<std::size_t>(64, trace.size() - i);
          sharded.apply({trace.data() + i, n});
        }
        sharded.sync_wal();
      } catch (...) {
        ::_exit(1);
      }
      ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), CrashPoint::kExitStatus)
        << "seed " << seed << ": child exit " << WEXITSTATUS(status);

    // Construction is recovery. The recovered cut is the log's intact CSN
    // prefix; requests at CSN > cut were lost with the crash, exactly as
    // if they had never been acknowledged.
    ShardedScheduler recovered(8, factory, options);
    const std::uint64_t cut = recovered.csn();
    ASSERT_GT(cut, 0u) << "seed " << seed;
    recovered.audit_balance();

    // Twin: drive the surviving prefix through an *unsharded* scheduler of
    // the same machine count — the sharded tier's contract is that
    // sharding (and now crash recovery) never changes the schedule.
    ReallocatingScheduler twin(8, machine_options);
    std::unordered_map<JobId, Window> live;
    std::uint64_t csn = 0;
    for (const Request& r : trace) {
      // Mirror the service tier's precondition filter: requests it
      // rejected before logging consumed no CSN.
      if (r.kind == RequestKind::kInsert) {
        if (live.contains(r.job)) continue;
        if (++csn > cut) break;
        try {
          twin.insert(r.job, r.window);
          live.emplace(r.job, r.window);
        } catch (const InfeasibleError&) {
        }
      } else {
        if (!live.contains(r.job)) continue;
        if (++csn > cut) break;
        twin.erase(r.job);
        live.erase(r.job);
      }
    }
    expect_identical_schedules(twin.snapshot(), recovered.snapshot(),
                               "sharded seed=" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace reasched
