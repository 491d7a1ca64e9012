// §4 "Trimming Windows to n": the n* estimate's doubling/halving rule and
// the window trim. ReservationScheduler and IncrementalRebuildScheduler
// both call these, so the two rebuild mechanisms trim identically.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "base/types.hpp"
#include "base/window.hpp"
#include "util/bits.hpp"

namespace reasched::trimming {

/// n* never halves below this.
inline constexpr u64 kMinNStar = 8;

/// n* doubles once the active count exceeds it.
[[nodiscard]] constexpr bool should_double(u64 n_star, std::size_t active) noexcept {
  return active > n_star;
}

/// n* halves once the active count falls below n*/4 (not below kMinNStar).
[[nodiscard]] constexpr bool should_halve(u64 n_star, std::size_t active) noexcept {
  return n_star > kMinNStar && active < n_star / 4;
}

/// Fewest requests (>= 1) after which either threshold can fire, when each
/// request changes the active count by at most one.
[[nodiscard]] constexpr std::size_t runway(u64 n_star, std::size_t active) noexcept {
  const std::size_t n = active;
  const auto n_star_size = static_cast<std::size_t>(n_star);
  std::size_t until = n > n_star_size ? 1 : n_star_size - n + 1;
  if (n_star > kMinNStar) {
    const std::size_t quarter = n_star_size / 4;
    until = std::min(until, n < quarter ? std::size_t{1} : n - quarter + 1);
  }
  return until;
}

/// splitmix64 of the job id: picks a trimmed job's block deterministically.
[[nodiscard]] inline u64 job_hash(JobId id) noexcept {
  u64 z = id.value + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Windows wider than 2γn* are trimmed to an aligned sub-window of span
/// exactly 2γn* (both powers of two, so the block decomposition is exact).
/// The block is picked by job-id hash to spread trimmed jobs across the
/// original window.
[[nodiscard]] inline Window trim(JobId id, Window w, u64 gamma, u64 n_star) noexcept {
  const u64 limit = 2 * gamma * n_star;
  if (static_cast<u64>(w.span()) <= limit) return w;
  const u64 blocks = static_cast<u64>(w.span()) / limit;
  const u64 pick = job_hash(id) % blocks;
  const Time start = w.start + static_cast<Time>(pick * limit);
  return Window{start, start + static_cast<Time>(limit)};
}

}  // namespace reasched::trimming
