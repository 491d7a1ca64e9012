// Write-ahead log for the scheduler's request-event stream (DESIGN.md §9).
//
// The WAL is event-sourced at the *request* level: every client-visible
// insert/erase is one record ⟨type, csn, job, window⟩, where the commit
// sequence number (CSN) is a dense 1-based counter over the request
// stream. Nothing internal is ever logged — shadow-generation
// reinsertions, migration replays and rehash traffic are deterministic
// functions of the request stream, so replaying the requests through the
// normal apply path reproduces the exact scheduler state (the same
// determinism argument the partitioned-rebuild differential tests rest
// on). The durable front end, ShardedScheduler with Options::wal, writes
// exactly one log, wal-000.log, in CSN order, so the file's intact prefix
// *is* the request stream recovery replays.
//
// On-disk format. A log file is a 16-byte header
//
//   "RSWAL001" (8)  |  version u32  |  reserved u32 (written as 0)
//
// followed by frames, each
//
//   payload_len u32  |  crc32c(payload) u32  |  payload
//
// where the payload is a batch of consecutive records (fixed-width codec,
// durability/codec.hpp). Records are buffered and cut into a frame when
// the buffer reaches DurabilityPolicy::frame_bytes (or on flush/sync);
// fsync runs every `sync_every` frames (0 = leave syncing to the OS). A
// torn tail — half-written header, short payload, checksum mismatch — is
// detected by the reader, which reports every record before the tear and
// the byte offset the file must be truncated to before appending resumes
// (the recovery path does exactly that; "truncate at bad checksum, never
// crash").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/window.hpp"
#include "durability/codec.hpp"

namespace reasched::durability {

/// Knobs of the durability tier. `dir` hosts the log + snapshot files.
struct DurabilityPolicy {
  std::string dir;
  /// fsync the log every N flushed frames (1 = every frame, 0 = never
  /// explicitly — buffered durability, the OS decides).
  std::uint64_t sync_every = 0;
  /// Cut a frame once the buffered payload reaches this size.
  std::size_t frame_bytes = 16 * 1024;
  /// Snapshot once N records have been logged since the last snapshot
  /// (0 = never on a cadence).
  std::uint64_t snapshot_every = 0;
  /// Snapshot after a request that flips a machine's n*-rebuild (its
  /// `rebuilt` stat is set): that boundary already carries rebuild-scale
  /// work, so the serialization pass hides in it. Off by default. Like a
  /// cadence snapshot, it waits until no machine has a migration in
  /// flight (ShardedScheduler::Options::wal).
  bool snapshot_on_flip = false;
  /// Snapshots retained per directory; older ones are pruned after each
  /// successful write (>= 1; the previous snapshot is the fallback when a
  /// crash lands mid-snapshot-write).
  std::size_t keep_snapshots = 2;
};

enum class WalRecordType : std::uint8_t { kInsert = 1, kErase = 2 };

/// Bytes of the per-frame header (payload_len u32 + crc32c u32) — shared
/// by the writer's inline frame-cut check and the reader.
inline constexpr std::size_t kWalFrameHeaderBytes = 8;

struct WalRecord {
  WalRecordType type = WalRecordType::kInsert;
  std::uint64_t csn = 0;
  JobId job{};
  Window window{};  ///< inserts only

  [[nodiscard]] static WalRecord insert(std::uint64_t csn, JobId id, Window w) {
    return WalRecord{WalRecordType::kInsert, csn, id, w};
  }
  [[nodiscard]] static WalRecord erase(std::uint64_t csn, JobId id) {
    return WalRecord{WalRecordType::kErase, csn, id, {}};
  }
  [[nodiscard]] Request to_request() const {
    return type == WalRecordType::kInsert ? Request::insert(job, window)
                                          : Request::erase(job);
  }

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

[[nodiscard]] WalRecord get_record(ByteSource& source);

/// Append-side of one log file. Not thread-safe: exactly one writer per
/// file, driven from one thread.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }
  WalWriter& operator=(WalWriter&& other) noexcept;

  /// Creates the file (with header) or appends to an existing one after
  /// validating its header. Throws CorruptInput on a foreign/garbled
  /// header and ContractViolation on I/O errors.
  void open(const std::string& path, const DurabilityPolicy& policy);
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

  /// Buffers one record and cuts a frame at the policy's frame_bytes. The
  /// per-request call on the durable hot path (E17 gates its overhead);
  /// keep it inline.
  void append(const WalRecord& record) {
    if (record.type == WalRecordType::kInsert) {
      std::byte* out = buffer_.grow(33);
      out[0] = static_cast<std::byte>(WalRecordType::kInsert);
      store_u64(out + 1, record.csn);
      store_u64(out + 9, record.job.value);
      store_u64(out + 17, static_cast<std::uint64_t>(record.window.start));
      store_u64(out + 25, static_cast<std::uint64_t>(record.window.end));
    } else {
      std::byte* out = buffer_.grow(17);
      out[0] = static_cast<std::byte>(WalRecordType::kErase);
      store_u64(out + 1, record.csn);
      store_u64(out + 9, record.job.value);
    }
    ++buffered_records_;
    if (buffer_.size() - kWalFrameHeaderBytes >= policy_.frame_bytes) flush();
  }
  /// Writes any buffered records out as a frame (no fsync of its own).
  void flush();
  /// flush() + fsync, unconditionally.
  void sync();
  void close();

  struct Stats {
    std::uint64_t records = 0;  ///< written out in frames
    std::uint64_t frames = 0;
    std::uint64_t syncs = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  static void store_u64(std::byte* out, std::uint64_t v) noexcept {
    // Byte-shift store (not memcpy) so the encoding is little-endian on
    // any host; compilers merge it into one 8-byte store where possible.
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<std::byte>(v >> (8 * i));
    }
  }
  void reset_frame();

  int fd_ = -1;
  DurabilityPolicy policy_{};
  ByteSink buffer_;
  std::uint64_t buffered_records_ = 0;
  std::uint64_t frames_since_sync_ = 0;
  Stats stats_{};
};

/// Result of scanning one log file.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Byte offset of the end of the last valid frame — where appending must
  /// resume (the torn tail, if any, lies beyond it).
  std::uint64_t valid_end = 0;
  /// True when the file ended in a torn/corrupt frame that was ignored.
  bool torn_tail = false;
  /// True when the file was missing entirely (records empty, valid_end 0).
  bool missing = false;
};

/// Reads every intact frame of a log file, stopping at the first torn or
/// corrupt one. Throws CorruptInput only for a garbled file *header* (a
/// foreign file — silently truncating it would destroy data); everything
/// after a valid header degrades to a shorter record stream.
[[nodiscard]] WalReadResult read_wal(const std::string& path);

/// Truncates the log to `valid_end` (drops a torn tail) so a writer can
/// append cleanly. No-op when the file is already that size.
void truncate_wal(const std::string& path, std::uint64_t valid_end);

/// Path of the log file inside `dir` ("wal-000.log").
[[nodiscard]] std::string wal_path(const std::string& dir);

/// Path of the second log file an older per-shard build left in `dir`
/// ("wal-001.log"); recovery refuses a directory that holds one.
[[nodiscard]] std::string legacy_shard_log_path(const std::string& dir);

/// mkdir -p: creates every missing component of `dir`.
void ensure_dir(const std::string& dir);

// File I/O shared by the log and the snapshot files. A failed system call
// is fatal (ContractViolation naming the call, the path and errno); only
// a file's contents can be corrupt.
[[noreturn]] void throw_errno(const char* what, const std::string& path);
/// write(2) until all `len` bytes are out.
void write_all(int fd, const void* data, std::size_t len, const std::string& path);
/// Reads the whole file into `out` (up to EOF or a failed read). Returns
/// false, with errno set, when the file cannot be opened or stat'ed.
[[nodiscard]] bool read_file(const std::string& path, std::vector<std::byte>& out);

}  // namespace reasched::durability
