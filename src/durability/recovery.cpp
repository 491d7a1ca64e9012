#include "durability/recovery.hpp"

#include <filesystem>

#include "util/assert.hpp"

namespace reasched::durability {

void recover_log(const DurabilityPolicy& policy, IReallocScheduler& target,
                 RecoveryReport& report, WalWriter& writer) {
  ensure_dir(policy.dir);
  const std::string legacy = legacy_shard_log_path(policy.dir);
  if (std::filesystem::exists(legacy)) {
    throw CorruptInput("wal: " + legacy + " is a per-shard log from an older build");
  }
  const std::string log = wal_path(policy.dir);
  const WalReadResult wal = read_wal(log);
  if (wal.torn_tail) {
    report.torn_tail = true;
    truncate_wal(log, wal.valid_end);
  }
  // The batch rejection rule over the whole replay: a rejected insert is a
  // deterministic re-run of a rejection the live process already reported
  // to its caller, and a later erase of that id is moot.
  FlatHashSet<JobId> rejected_ids;
  RequestStats stats;
  for (const WalRecord& record : wal.records) {
    if (record.csn <= report.snapshot_csn) continue;
    RS_CHECK(record.csn > report.last_csn, "recovery: replay stream not ascending");
    report.last_csn = record.csn;
    ++report.replayed;
    if (!serve_request(target, record.to_request(), rejected_ids, stats)) {
      ++report.rejected_replays;
    }
  }
  writer.open(log, policy);
}

}  // namespace reasched::durability
