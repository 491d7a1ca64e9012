// Snapshot files: a caller's payload with crash-safe framing.
//
// A snapshot is written to `snap-<csn>.snap` where <csn> is the commit
// sequence number of the last request folded into the state. The file is
//
//   payload | payload_len u64 | crc32c u32
//
// written to a `.tmp` sibling first, fsynced, then renamed into place —
// the snapshot either exists completely or not at all; a crash mid-write
// leaves only a tmp file that recovery ignores. The trailer (rather than
// a header) lets the writer stream the payload without a second pass.
// The payload is the caller's: ShardedScheduler writes its machine count,
// every machine's SchedulerPersist image and its BalanceLedger
// (DESIGN.md §9).
//
// Corruption of any committed snapshot is survivable: load_snapshot
// returns false instead of throwing for anything wrong with the *file*
// (short, bad CRC, a payload the reader refuses with CorruptInput), and
// recovery falls back to the next-older snapshot, or to empty machines
// plus a full WAL replay. Only programming errors (I/O syscall failures)
// abort.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "durability/wal.hpp"

namespace reasched::durability {

/// Encodes the state to snapshot into the sink.
using PayloadWriter = std::function<void(ByteSink&)>;
/// Decodes a payload written by the matching writer; throws CorruptInput
/// on anything malformed.
using PayloadReader = std::function<void(ByteSource&)>;

/// `dir`/snap-<csn>.snap
[[nodiscard]] std::string snapshot_path(const std::string& dir, std::uint64_t csn);

/// CSNs of every committed (renamed) snapshot in `dir`, newest first.
/// Tmp leftovers and foreign files are ignored. Missing dir → empty.
[[nodiscard]] std::vector<std::uint64_t> list_snapshots(const std::string& dir);

/// Writes `payload`'s bytes as the state after CSN `csn`, atomically, then
/// prunes committed snapshots beyond policy.keep_snapshots (newest kept).
/// Crashpoints: "snapshot.mid" dies with a half-written tmp file,
/// "snapshot.rename" dies after the tmp is durable but before the rename.
void write_snapshot(const std::string& dir, std::uint64_t csn,
                    const PayloadWriter& payload, const DurabilityPolicy& policy);

/// Checks `path`'s framing and hands its payload to `payload`. Returns
/// false on a missing, short or mis-checksummed file and when `payload`
/// throws CorruptInput (whatever it loaded is then unspecified — discard
/// it); true on success.
[[nodiscard]] bool load_snapshot(const std::string& path, const PayloadReader& payload);

}  // namespace reasched::durability
