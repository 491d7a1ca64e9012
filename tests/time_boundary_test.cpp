// Boundary values of Time: aligned windows at the very top of the signed
// 64-bit timeline. The highest aligned window of span 2^k is
// [2^63 - 2^(k+1), 2^63 - 2^k): the next one up would end at 2^63, which
// Time cannot hold. Every request here is either served, with the audit
// clean afterwards, or refused with ContractViolation; nothing may
// overflow (the ASan/UBSan lane runs this suite), and the durable path
// must log and recover such windows exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "durability/wal.hpp"
#include "service/sharded_scheduler.hpp"

namespace reasched {
namespace {

constexpr u64 kTwo63 = u64{1} << 63;

/// The j-th highest aligned window of span 2^k (j = 0 is the highest).
/// Needs (j + 2) * 2^k <= 2^64 so that its start is >= -2^63.
Window top_window(unsigned k, u64 j) {
  const u64 span = u64{1} << k;
  const u64 end = kTwo63 - (j + 1) * span;  // wraps below zero, as Time does
  return Window{static_cast<Time>(end - span), static_cast<Time>(end)};
}

/// Windows at the top of Time: the highest aligned window of every span
/// 2^0..2^62 (they tile [0, 2^63 - 1), so each is alone), then the next
/// highest ones of spans 2^12 and up, which nest inside those but are
/// wide enough that a few hundred jobs never fill one.
std::vector<Window> top_windows(std::size_t count) {
  std::vector<Window> out;
  for (unsigned k = 0; k <= 62 && out.size() < count; ++k) out.push_back(top_window(k, 0));
  for (u64 j = 1; out.size() < count; ++j) {
    for (unsigned k = 12; k <= 61 && out.size() < count; ++k) {
      if (j + 2 <= (u64{1} << (64 - k))) out.push_back(top_window(k, j));
    }
  }
  return out;
}

/// Every request audited: the incremental engine after each one (its
/// differential contract is the full sweep's verdict), and the full
/// sweep itself wherever n* moves and every 16 requests.
SchedulerOptions audited(bool trimming) {
  SchedulerOptions options;
  options.trimming = trimming;
  options.overflow = OverflowPolicy::kBestEffort;
  options.audit_policy.mode = audit::Mode::kIncremental;
  options.audit_policy.cadence = 1;
  return options;
}

/// Serves `window` for `id`: either the scheduler takes it and its audit
/// stays clean, or it refuses it as a precondition violation. Returns
/// whether it was served.
bool served_or_refused(IReallocScheduler& s, JobId id, Window window) {
  try {
    s.insert(id, window);
  } catch (const ContractViolation&) {
    return false;
  }
  return true;
}

void ramp_and_drain(bool trimming) {
  SCOPED_TRACE(trimming ? "trimming on" : "trimming off");
  ReservationScheduler s(audited(trimming));
  EXPECT_EQ(s.n_star(), 8u);
  std::size_t requests = 0;
  std::uint64_t n_star = s.n_star();
  const auto full_audit_due = [&] {
    const bool due = ++requests % 16 == 0 || s.n_star() != n_star;
    n_star = s.n_star();
    if (due) s.audit();
  };
  // Ramp: n* doubles from its floor through every boundary up to 512.
  const std::vector<Window> windows = top_windows(400);
  std::vector<JobId> active;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const JobId id{i + 1};
    ASSERT_TRUE(served_or_refused(s, id, windows[i])) << windows[i];
    active.push_back(id);
    full_audit_due();
  }
  EXPECT_EQ(s.n_star(), trimming ? 512u : 8u);
  // Drain: n* halves back down to its floor.
  while (!active.empty()) {
    s.erase(active.back());
    active.pop_back();
    full_audit_due();
  }
  EXPECT_EQ(s.n_star(), 8u);
  s.audit();
}

TEST(TimeBoundary, TopOfTimeWindowsServeAndAuditWithTrimming) { ramp_and_drain(true); }

TEST(TimeBoundary, TopOfTimeWindowsServeAndAuditWithoutTrimming) { ramp_and_drain(false); }

TEST(TimeBoundary, WindowsPastTheTableOrTimeAreRefused) {
  for (const bool trimming : {true, false}) {
    ReservationScheduler s(audited(trimming));
    const Time max = std::numeric_limits<Time>::max();
    const Time min = std::numeric_limits<Time>::min();
    // Spans above the paper table's 2^62 limit, and spans Time cannot
    // hold as a difference.
    for (const Window w : {Window{min, 0}, Window{min, max}, Window{-1, max}, Window{min, 1}}) {
      EXPECT_FALSE(served_or_refused(s, JobId{1}, w)) << w;
    }
    // Unaligned windows at the top.
    for (const Window w : {Window{max - 2, max}, Window{max - 64, max}, Window{1, max}}) {
      EXPECT_FALSE(served_or_refused(s, JobId{1}, w)) << w;
    }
    // The largest span the table takes, at both ends of Time.
    EXPECT_TRUE(served_or_refused(s, JobId{1}, Window{0, Time{1} << 62}));
    EXPECT_TRUE(served_or_refused(s, JobId{2}, Window{min, min + (Time{1} << 62)}));
    EXPECT_EQ(s.active_jobs(), 2u);
  }
}

TEST(TimeBoundary, DurableServiceLogsAndRecoversTopOfTimeWindows) {
  struct TempDir {
    std::string path;
    TempDir() {
      char tmpl[] = "/tmp/reasched-boundary-XXXXXX";
      const char* made = ::mkdtemp(tmpl);
      EXPECT_NE(made, nullptr);
      path = made;
    }
    ~TempDir() { std::filesystem::remove_all(path); }
  } dir;
  durability::DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 100;
  const SchedulerOptions options = audited(true);
  std::vector<ReservationScheduler*> built;
  const auto factory = [&] {
    auto machine = std::make_unique<ReservationScheduler>(options);
    built.push_back(machine.get());
    return machine;
  };
  ShardedScheduler::Options service_options;
  service_options.wal = policy;
  Schedule live;
  {
    ShardedScheduler service(1, factory, service_options);
    const std::vector<Window> windows = top_windows(250);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      ASSERT_TRUE(served_or_refused(service, JobId{i + 1}, windows[i]));
      if (i % 3 == 2) service.erase(JobId{i});
    }
    built.back()->audit();
    live = service.snapshot();
  }
  ShardedScheduler recovered(1, factory, service_options);
  EXPECT_GT(recovered.recovery_report().snapshot_csn, 0u);
  built.back()->audit();
  ASSERT_EQ(recovered.snapshot().size(), live.size());
  for (const auto& [id, placement] : live.assignments()) {
    EXPECT_EQ(recovered.snapshot().find(id)->slot, placement.slot) << id.value;
  }
}

}  // namespace
}  // namespace reasched
