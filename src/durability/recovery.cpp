#include "durability/recovery.hpp"

#include <filesystem>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace reasched::durability {

namespace {

// Records per replay batch: enough to amortize one apply() fan-out many
// times over, few enough that a rejection's sub-batch rollback and
// sequential re-run stay short.
constexpr std::size_t kReplayBatch = 4096;

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
  // The batch rejection rule over the whole replay: a rejected insert is a
  // deterministic re-run of a rejection the live process already reported
  // to its caller, and a later erase of that id is moot. apply() enforces
  // the rule inside one batch; this set carries it across batches.
  FlatHashSet<JobId> rejected_ids;
  std::vector<Request> batch;
  batch.reserve(kReplayBatch);
  std::uint64_t batch_first_csn = 0;
  const auto replay_batch = [&] {
    BatchResult result;
    try {
      result = target.apply(batch);
    } catch (const ContractViolation& e) {
      // The service logs no precondition-violating request, so a
      // checksummed record that violates one is corruption.
      throw CorruptInput("wal: invalid record among csn " +
                         std::to_string(batch_first_csn) + ".." +
                         std::to_string(report.last_csn) + ": " + e.what());
    }
    report.rejected_replays += result.rejected.size();
    // Carry the batch's rejections past its end by serve_request's rule,
    // in request order from the first rejection on.
    const std::vector<std::uint32_t>& rejected = result.rejected;
    std::size_t next = 0;  // into `rejected`, ascending
    for (std::size_t i = rejected.empty() ? batch.size() : rejected.front();
         i < batch.size(); ++i) {
      const bool was_rejected = next < rejected.size() && rejected[next] == i;
      if (was_rejected) ++next;
      if (batch[i].kind == RequestKind::kInsert && was_rejected) {
        rejected_ids.insert(batch[i].job);
      } else if (batch[i].kind == RequestKind::kInsert || was_rejected) {
        rejected_ids.erase(batch[i].job);  // a served retry, or a moot erase
      }
    }
    batch.clear();
  };
  for (const WalRecord& record : wal.records) {
    if (record.csn <= report.snapshot_csn) continue;
    if (record.csn <= report.last_csn) {
      throw CorruptInput("wal: csn " + std::to_string(record.csn) + " out of order");
    }
    report.last_csn = record.csn;
    ++report.replayed;
    // An id an earlier batch rejected: its erase is moot, and a re-insert
    // of it is served afresh.
    if (!rejected_ids.empty() && rejected_ids.erase(record.job) != 0 &&
        record.type == WalRecordType::kErase) {
      ++report.rejected_replays;
      continue;
    }
    if (batch.empty()) batch_first_csn = record.csn;
    batch.push_back(record.to_request());
    if (batch.size() == kReplayBatch) replay_batch();
  }
  if (!batch.empty()) replay_batch();
  writer.open(log, policy);
}

}  // namespace reasched::durability
