#include "durability/snapshot.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>

#include "durability/crashpoint.hpp"
#include "util/assert.hpp"
#include "util/crc32c.hpp"

namespace reasched::durability {

namespace {

constexpr std::size_t kTrailerBytes = 12;  // payload_len u64 + crc32c u32

/// Parses "snap-<csn>.snap"; returns false for anything else.
bool parse_snapshot_name(const char* name, std::uint64_t& csn) {
  std::uint64_t value = 0;
  int consumed = 0;
  if (std::sscanf(name, "snap-%" SCNu64 ".snap%n", &value, &consumed) != 1) {
    return false;
  }
  if (name[consumed] != '\0') return false;
  csn = value;
  return true;
}

}  // namespace

std::string snapshot_path(const std::string& dir, std::uint64_t csn) {
  char name[48];
  std::snprintf(name, sizeof(name), "snap-%" PRIu64 ".snap", csn);
  return dir + "/" + name;
}

std::vector<std::uint64_t> list_snapshots(const std::string& dir) {
  std::vector<std::uint64_t> csns;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return csns;
    throw_errno("snapshot: cannot list", dir);
  }
  while (const dirent* entry = ::readdir(d)) {
    std::uint64_t csn = 0;
    if (parse_snapshot_name(entry->d_name, csn)) csns.push_back(csn);
  }
  ::closedir(d);
  std::sort(csns.begin(), csns.end(), std::greater<>{});
  return csns;
}

void write_snapshot(const std::string& dir, std::uint64_t csn,
                    const PayloadWriter& write_payload, const DurabilityPolicy& policy) {
  ByteSink payload;
  write_payload(payload);
  ByteSink trailer;
  trailer.u64(payload.size());
  trailer.u32(crc32c(payload.bytes().data(), payload.size()));

  const std::string final_path = snapshot_path(dir, csn);
  const std::string tmp_path = final_path + ".tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("snapshot: cannot create", tmp_path);
  if (CrashPoint::due("snapshot.mid")) {
    // Fault injection: die with a half-written tmp file on disk. Recovery
    // must never even look at it (it has no committed name).
    write_all(fd, payload.bytes().data(), payload.size() / 2, tmp_path);
    ::fsync(fd);
    CrashPoint::die();
  }
  write_all(fd, payload.bytes().data(), payload.size(), tmp_path);
  write_all(fd, trailer.bytes().data(), trailer.size(), tmp_path);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("snapshot: cannot sync", tmp_path);
  }
  ::close(fd);
  if (CrashPoint::due("snapshot.rename")) {
    // Fault injection: tmp fully durable, rename never issued — recovery
    // must fall back to the previous snapshot (or the WAL from scratch).
    CrashPoint::die();
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw_errno("snapshot: cannot commit", final_path);
  }
  // Make the rename itself durable before pruning what it supersedes.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }

  const std::size_t keep = policy.keep_snapshots > 0 ? policy.keep_snapshots : 1;
  const std::vector<std::uint64_t> all = list_snapshots(dir);
  for (std::size_t i = keep; i < all.size(); ++i) {
    ::unlink(snapshot_path(dir, all[i]).c_str());
  }
}

bool load_snapshot(const std::string& path, const PayloadReader& read_payload) {
  std::vector<std::byte> file;
  if (!read_file(path, file)) return false;
  if (file.size() < kTrailerBytes) return false;
  ByteSource trailer(file.data() + file.size() - kTrailerBytes, kTrailerBytes);
  const std::uint64_t payload_len = trailer.u64();
  const std::uint32_t expect_crc = trailer.u32();
  if (payload_len != file.size() - kTrailerBytes) return false;
  if (crc32c(file.data(), payload_len) != expect_crc) return false;
  try {
    ByteSource source(file.data(), payload_len);
    read_payload(source);
  } catch (const CorruptInput&) {
    return false;
  }
  return true;
}

}  // namespace reasched::durability
