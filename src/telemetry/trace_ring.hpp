// Per-thread ring of span/instant trace events, overwrite-oldest.
//
// Each recording thread owns one TraceRing (inside its registry shard).
// push() is called only by the owning thread; drain runs on the scrape
// thread while the owner may still be recording, so both sides take the
// ring's mutex — an uncontended lock on the record path, acceptable for
// the opt-in tracing tier (the always-on metrics tier never touches a
// ring; see DESIGN.md §10 for the two-tier pricing).
//
// Event names must be string literals (or otherwise outlive the ring):
// the ring stores the pointer, never copies — no allocation per event.
// Timestamps/durations are raw clock ticks (telemetry::ticks()); the
// registry converts to wall nanoseconds at drain time.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace reasched::telemetry {

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ticks = 0;   // event start
  std::uint64_t dur_ticks = 0;  // 0 for instant events
  std::uint64_t id = 0;         // span id (process-unique, 0 = unassigned)
  std::uint64_t csn = 0;        // WAL commit sequence / ticket in scope, 0 = none
  char phase = 'X';             // chrome phase: 'X' complete span, 'i' instant
};

class TraceRing {
 public:
  /// Capacity is rounded up to a power of two; the buffer is allocated
  /// lazily on the first push, so idle threads cost nothing.
  explicit TraceRing(std::uint32_t capacity) noexcept {
    while (capacity_ < capacity && capacity_ < (1u << 24)) capacity_ <<= 1;
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void push(const TraceEvent& event) {
    std::lock_guard lock(mutex_);
    if (buffer_ == nullptr) buffer_ = std::make_unique<TraceEvent[]>(capacity_);
    buffer_[head_ & (capacity_ - 1)] = event;
    ++head_;
  }

  /// The last min(capacity, pushed) events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> drain() const {
    std::lock_guard lock(mutex_);
    std::vector<TraceEvent> out;
    if (buffer_ == nullptr) return out;
    const std::uint64_t first = head_ > capacity_ ? head_ - capacity_ : 0;
    out.reserve(static_cast<std::size_t>(head_ - first));
    for (std::uint64_t i = first; i < head_; ++i) {
      out.push_back(buffer_[i & (capacity_ - 1)]);
    }
    return out;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    buffer_.reset();
    head_ = 0;
  }

  /// Total events ever pushed (monotonic; not clamped by capacity).
  [[nodiscard]] std::uint64_t pushed() const {
    std::lock_guard lock(mutex_);
    return head_;
  }

 private:
  mutable std::mutex mutex_;
  std::unique_ptr<TraceEvent[]> buffer_;
  std::uint32_t capacity_ = 1;  // power of two
  std::uint64_t head_ = 0;
};

}  // namespace reasched::telemetry
