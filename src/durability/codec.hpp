// Byte-buffer codec for the durability tier (DESIGN.md §9): the Sink /
// Source pair every serialize/deserialize hook in the repository writes
// through (flat-hash tables, the occupancy index, scheduler snapshots, WAL
// record payloads).
//
// Fixed-width little-endian integers, no varints: the frames are CRC32C-
// checksummed and compressed-size is not a design goal, while a fixed
// layout keeps torn-input handling trivial (every underrun is detected as
// exactly one named error). Signed values round-trip through two's
// complement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/window.hpp"

namespace reasched::durability {

/// Thrown (as InternalError's sibling) on any malformed durable input:
/// truncated buffer, bad magic, checksum mismatch, impossible field. The
/// recovery path catches it per-artifact and degrades (skip the snapshot,
/// truncate the log). It escapes recovery only for a foreign log header
/// or a per-shard log directory (durability::recover_log).
struct CorruptInput final : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs the owner's audit over freshly decoded state: a decoder checks only
/// what keeps it memory-safe and exact. A failed check (InternalError, or
/// a check's own ContractViolation) means no writer made these bytes, so
/// the load is refused like any other malformed input.
template <class Audit>
void audit_decoded(const char* what, Audit&& audit) {
  try {
    audit();
  } catch (const std::logic_error& violated) {
    throw CorruptInput(std::string(what) + ": " + violated.what());
  }
}

/// Append-only byte sink.
class ByteSink {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  // One range-insert per integer, not one bounds-checked push_back per
  // byte: WAL append is on the request hot path (E17 gates its overhead).
  void u32(std::uint32_t v) {
    std::byte le[4];
    for (int i = 0; i < 4; ++i) le[i] = static_cast<std::byte>(v >> (8 * i));
    byte_block(le, sizeof(le));
  }
  void u64(std::uint64_t v) {
    std::byte le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::byte>(v >> (8 * i));
    byte_block(le, sizeof(le));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void byte_block(const void* data, std::size_t len) {
    // resize+memcpy rather than insert(end, p, p+len): the range insert's
    // generic iterator machinery costs real time at WAL-record sizes, and
    // this method runs once per request on the durable hot path.
    const std::size_t at = buf_.size();
    buf_.resize(at + len);
    std::memcpy(buf_.data() + at, data, len);
  }
  /// Grows the buffer by `len` bytes and returns a pointer to the new
  /// region, for callers that encode a fixed-layout record directly in
  /// place (the WAL append fast path) instead of going through the
  /// per-field methods.
  [[nodiscard]] std::byte* grow(std::size_t len) {
    const std::size_t at = buf_.size();
    buf_.resize(at + len);
    return buf_.data() + at;
  }
  /// Overwrites 4 already-written bytes at `pos` (little-endian) — lets a
  /// writer reserve a header slot and patch length/checksum in afterwards
  /// instead of assembling the finished message in a second buffer.
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[pos + static_cast<std::size_t>(i)] = static_cast<std::byte>(v >> (8 * i));
    }
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  void clear() noexcept { buf_.clear(); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over a byte range (does not own the bytes).
class ByteSource {
 public:
  ByteSource(const std::byte* data, std::size_t len) noexcept
      : data_(data), len_(len) {}
  explicit ByteSource(const std::vector<std::byte>& buf) noexcept
      : ByteSource(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  void byte_block(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }

  /// Consumes the next `len` bytes and returns a reader over just them.
  [[nodiscard]] ByteSource sub(std::uint64_t len) {
    if (len > remaining()) throw CorruptInput("durability: truncated input");
    const ByteSource inner(data_ + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return inner;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return len_ - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == len_; }

  /// Rejects the input as malformed (throws CorruptInput). The templated
  /// decoders in util/ report impossible fields through this, so they
  /// surface as CorruptInput without naming the durability tier.
  [[noreturn]] void corrupt(const char* what) const { throw CorruptInput(what); }

 private:
  void need(std::size_t n) const {
    if (len_ - pos_ < n) throw CorruptInput("durability: truncated input");
  }

  const std::byte* data_ = nullptr;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
};

// Request-field helpers shared by the WAL record codec and the scheduler
// snapshot (both persist JobId/Window values constantly).
inline void put_window(ByteSink& sink, const Window& w) {
  sink.i64(w.start);
  sink.i64(w.end);
}
[[nodiscard]] inline Window get_window(ByteSource& source) {
  Window w;
  w.start = source.i64();
  w.end = source.i64();
  return w;
}

}  // namespace reasched::durability
