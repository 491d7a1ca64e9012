#include "durability/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "durability/crashpoint.hpp"
#include "telemetry/registry.hpp"
#include "util/assert.hpp"
#include "util/crc32c.hpp"

namespace reasched::durability {

namespace {

constexpr char kMagic[8] = {'R', 'S', 'W', 'A', 'L', '0', '0', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kFrameHeaderBytes = kWalFrameHeaderBytes;
/// Upper bound accepted for one frame's payload — garbage lengths in a
/// torn frame header must not trigger a giant allocation.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

}  // namespace

void throw_errno(const char* what, const std::string& path) {
  RS_REQUIRE(false, std::string(what) + " " + path + ": " + std::strerror(errno));
  __builtin_unreachable();
}

void write_all(int fd, const void* data, std::size_t len, const std::string& path) {
  const auto* p = static_cast<const std::byte*>(data);
  while (len > 0) {
    const ssize_t wrote = ::write(fd, p, len);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw_errno("durability: write failed", path);
    }
    p += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
}

bool read_file(const std::string& path, std::vector<std::byte>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t got = ::read(fd, out.data() + off, out.size() - off);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    off += static_cast<std::size_t>(got);
  }
  out.resize(off);
  ::close(fd);
  return true;
}

WalRecord get_record(ByteSource& source) {
  WalRecord record;
  const std::uint8_t type = source.u8();
  if (type != static_cast<std::uint8_t>(WalRecordType::kInsert) &&
      type != static_cast<std::uint8_t>(WalRecordType::kErase)) {
    throw CorruptInput("wal: unknown record type");
  }
  record.type = static_cast<WalRecordType>(type);
  record.csn = source.u64();
  record.job.value = source.u64();
  if (record.type == WalRecordType::kInsert) {
    record.window = get_window(source);
    if (!record.window.valid()) throw CorruptInput("wal: insert with empty window");
  }
  return record;
}

std::string wal_path(const std::string& dir) { return dir + "/wal-000.log"; }

std::string legacy_shard_log_path(const std::string& dir) { return dir + "/wal-001.log"; }

void ensure_dir(const std::string& dir) {
  RS_REQUIRE(!dir.empty(), "durability: policy.dir must be set");
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t next = dir.find('/', pos);
    const std::string prefix =
        dir.substr(0, next == std::string::npos ? dir.size() : next);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw_errno("durability: cannot create dir", prefix);
    }
    if (next == std::string::npos) break;
    pos = next + 1;
  }
}

// ---------------------------------------------------------------- writer --

WalWriter::~WalWriter() { close(); }

void WalWriter::reset_frame() {
  buffer_.clear();
  buffer_.u32(0);  // frame header slot: payload length, patched at flush
  buffer_.u32(0);  // frame header slot: payload CRC32C, patched at flush
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    policy_ = std::move(other.policy_);
    buffer_ = std::move(other.buffer_);
    buffered_records_ = std::exchange(other.buffered_records_, 0);
    frames_since_sync_ = std::exchange(other.frames_since_sync_, 0);
    stats_ = std::exchange(other.stats_, Stats{});
  }
  return *this;
}

void WalWriter::open(const std::string& path, const DurabilityPolicy& policy) {
  close();
  policy_ = policy;
  reset_frame();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("wal: cannot open", path);
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throw_errno("wal: cannot stat", path);
  if (st.st_size == 0) {
    ByteSink header;
    header.byte_block(kMagic, sizeof(kMagic));
    header.u32(kVersion);
    header.u32(0);  // reserved
    write_all(fd_, header.bytes().data(), header.size(), path);
    if (::fsync(fd_) != 0) throw_errno("wal: cannot sync", path);
  } else {
    // Appending to an existing log: validate the header so a stray file
    // is never silently extended with frames it cannot parse.
    const int read_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (read_fd < 0) throw_errno("wal: cannot reopen", path);
    char magic[sizeof(kMagic)] = {0};
    const ssize_t got = ::read(read_fd, magic, sizeof(magic));
    ::close(read_fd);
    if (got != static_cast<ssize_t>(sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw CorruptInput("wal: bad file header: " + path);
    }
  }
}

void WalWriter::flush() {
  if (buffered_records_ == 0) return;
  RS_TELEM_DURATION(kFlushHist, "wal.flush");
  RS_TELEM_SPAN(flush_span, kFlushHist, "wal.flush");
  // The frame is assembled in place: buffer_ starts with an 8-byte header
  // slot (reset_frame) that the length and checksum are patched into, so a
  // flush is one write of bytes already laid out — no second buffer, no
  // payload copy.
  const std::size_t payload = buffer_.size() - kFrameHeaderBytes;
  buffer_.patch_u32(0, static_cast<std::uint32_t>(payload));
  buffer_.patch_u32(
      4, crc32c(buffer_.bytes().data() + kFrameHeaderBytes, payload));
  if (CrashPoint::due("wal.frame")) {
    // Fault injection: persist a torn prefix of this frame — header plus
    // roughly half the payload — exactly what a power cut mid-write
    // leaves, then die. Recovery must truncate here.
    const std::size_t torn = kFrameHeaderBytes + payload / 2;
    write_all(fd_, buffer_.bytes().data(), torn, "(fd)");
    ::fsync(fd_);
    CrashPoint::die();
  }
  write_all(fd_, buffer_.bytes().data(), buffer_.size(), "(fd)");
  ++stats_.frames;
  stats_.records += buffered_records_;
  stats_.bytes += buffer_.size();
  RS_TELEM_COUNTER(kRecords, "wal.records");
  RS_TELEM_ADD(kRecords, buffered_records_);
  RS_TELEM_COUNTER(kBytes, "wal.bytes");
  RS_TELEM_ADD(kBytes, buffer_.size());
  reset_frame();
  buffered_records_ = 0;
  if (policy_.sync_every > 0 && ++frames_since_sync_ >= policy_.sync_every) {
    RS_TELEM_DURATION(kFsyncHist, "wal.fsync");
    RS_TELEM_SPAN(fsync_span, kFsyncHist, "wal.fsync");
    if (::fsync(fd_) != 0) throw_errno("wal: cannot sync", "(fd)");
    frames_since_sync_ = 0;
    ++stats_.syncs;
  }
}

void WalWriter::sync() {
  RS_REQUIRE(is_open(), "wal: sync on closed writer");
  flush();
  RS_TELEM_DURATION(kFsyncHist, "wal.fsync");
  RS_TELEM_SPAN(fsync_span, kFsyncHist, "wal.fsync");
  if (::fsync(fd_) != 0) throw_errno("wal: cannot sync", "(fd)");
  frames_since_sync_ = 0;
  ++stats_.syncs;
}

void WalWriter::close() {
  if (fd_ < 0) return;
  flush();
  ::close(fd_);
  fd_ = -1;
}

// ---------------------------------------------------------------- reader --

WalReadResult read_wal(const std::string& path) {
  WalReadResult result;
  std::vector<std::byte> file;
  if (!read_file(path, file)) {
    if (errno != ENOENT) throw_errno("wal: cannot read", path);
    result.missing = true;
    return result;
  }

  if (file.size() < kHeaderBytes ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CorruptInput("wal: bad file header: " + path);
  }

  std::size_t pos = kHeaderBytes;
  result.valid_end = pos;
  while (pos < file.size()) {
    if (file.size() - pos < kFrameHeaderBytes) {
      result.torn_tail = true;  // half-written frame header
      break;
    }
    ByteSource header(file.data() + pos, kFrameHeaderBytes);
    const std::uint32_t payload_len = header.u32();
    const std::uint32_t expect_crc = header.u32();
    if (payload_len > kMaxFramePayload ||
        file.size() - pos - kFrameHeaderBytes < payload_len) {
      result.torn_tail = true;  // short payload (or garbage length)
      break;
    }
    const std::byte* payload = file.data() + pos + kFrameHeaderBytes;
    if (crc32c(payload, payload_len) != expect_crc) {
      result.torn_tail = true;  // bit rot or torn payload overwritten later
      break;
    }
    // Decode outside the torn-tail tolerance: the checksum vouched for
    // these bytes, so a malformed record here is real corruption worth
    // keeping — but still bounded to this file, so degrade like a tear
    // rather than aborting recovery.
    const std::size_t frame_start = result.records.size();
    try {
      ByteSource body(payload, payload_len);
      while (!body.exhausted()) result.records.push_back(get_record(body));
    } catch (const CorruptInput&) {
      result.records.resize(frame_start);  // the frame is all or nothing
      result.torn_tail = true;
      break;
    }
    pos += kFrameHeaderBytes + payload_len;
    result.valid_end = pos;
  }
  return result;
}

void truncate_wal(const std::string& path, std::uint64_t valid_end) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return;
    throw_errno("wal: cannot stat", path);
  }
  if (static_cast<std::uint64_t>(st.st_size) == valid_end) return;
  if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
    throw_errno("wal: cannot truncate", path);
  }
}

}  // namespace reasched::durability
