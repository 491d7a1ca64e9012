// Window algebra (paper §2): a window W = [a, d] offers the slots
// a, a+1, ..., d-1 and has span |W| = d - a. A window is *aligned* when its
// span is a power of two and its start is a multiple of that span (§2,
// "Aligned-Windows Assumption"). Aligned windows form a laminar family:
// two aligned windows are disjoint, equal, or nested.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>

#include "base/types.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace reasched {

struct Window {
  Time start = 0;  ///< arrival a: earliest usable slot
  Time end = 0;    ///< deadline d: one past the latest usable slot (d-1)

  constexpr Window() = default;
  constexpr Window(Time a, Time d) : start(a), end(d) {}

  /// Number of usable slots, |W| = d - a. Valid windows have span >= 1.
  /// No signed overflow: a span beyond Time reads back exactly as a u64.
  [[nodiscard]] constexpr Time span() const noexcept {
    return static_cast<Time>(static_cast<u64>(end) - static_cast<u64>(start));
  }

  [[nodiscard]] constexpr bool valid() const noexcept { return end > start; }

  /// True iff slot t may host a job with this window.
  [[nodiscard]] constexpr bool contains(Time t) const noexcept {
    return start <= t && t < end;
  }

  /// True iff `other` is fully inside this window.
  [[nodiscard]] constexpr bool contains(const Window& other) const noexcept {
    return start <= other.start && other.end <= end;
  }

  [[nodiscard]] constexpr bool overlaps(const Window& other) const noexcept {
    return start < other.end && other.start < end;
  }

  /// Aligned: span is 2^i and start is a multiple of 2^i.
  [[nodiscard]] bool aligned() const {
    if (!valid()) return false;
    const auto s = static_cast<u64>(span());
    return is_pow2(s) && (static_cast<u64>(start) & (s - 1)) == 0;
  }

  friend constexpr auto operator<=>(const Window&, const Window&) = default;

  friend std::ostream& operator<<(std::ostream& os, const Window& w) {
    return os << '[' << w.start << ',' << w.end << ')';
  }
};

/// A job specification as carried by insert requests.
struct JobSpec {
  JobId id;
  Window window;
  friend constexpr auto operator<=>(const JobSpec&, const JobSpec&) = default;
};

/// A scheduling request (paper §2): ⟨INSERTJOB, name, arrival, deadline⟩ or
/// ⟨DELETEJOB, name⟩.
struct Request {
  RequestKind kind = RequestKind::kInsert;
  JobId job;
  Window window;  ///< meaningful only for inserts

  static Request insert(JobId id, Window w) {
    RS_REQUIRE(w.valid(), "insert request with empty window");
    return Request{RequestKind::kInsert, id, w};
  }
  static Request insert(JobId id, Time arrival, Time deadline) {
    return insert(id, Window{arrival, deadline});
  }
  static Request erase(JobId id) { return Request{RequestKind::kDelete, id, {}}; }
};

}  // namespace reasched

template <>
struct std::hash<reasched::Window> {
  std::size_t operator()(const reasched::Window& w) const noexcept {
    std::uint64_t z = static_cast<std::uint64_t>(w.start) * 0x9e3779b97f4a7c15ULL;
    z ^= static_cast<std::uint64_t>(w.end) + 0x517cc1b727220a95ULL + (z << 6) + (z >> 2);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(z ^ (z >> 27));
  }
};
