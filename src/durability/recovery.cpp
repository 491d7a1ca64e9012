#include "durability/recovery.hpp"

#include <filesystem>
#include <span>

#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace reasched::durability {

namespace {

void replay_records(IReallocScheduler& target, std::span<const WalRecord> records,
                    std::uint64_t after_csn, RecoveryReport& report) {
  // Ids whose replayed insert was rejected: their erases must be skipped,
  // exactly like the batch API's "delete of a rejected insert is moot".
  FlatHashSet<JobId> rejected_ids;
  for (const WalRecord& record : records) {
    if (record.csn <= after_csn) continue;
    RS_CHECK(record.csn > report.last_csn, "recovery: replay stream not ascending");
    report.last_csn = record.csn;
    ++report.replayed;
    if (record.type == WalRecordType::kInsert) {
      try {
        target.insert(record.job, record.window);
      } catch (const InfeasibleError&) {
        // Deterministic re-run of a rejection the live process already
        // reported to its caller; the state is untouched, continue.
        rejected_ids.insert(record.job);
        ++report.rejected_replays;
        continue;
      }
      rejected_ids.erase(record.job);  // id may be reused after a rejection
    } else {
      if (rejected_ids.contains(record.job)) {
        rejected_ids.erase(record.job);
        ++report.rejected_replays;
        continue;
      }
      target.erase(record.job);
    }
  }
}

}  // namespace

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
  replay_records(target, wal.records, report.snapshot_csn, report);
  writer.open(log, policy);
}

}  // namespace reasched::durability
