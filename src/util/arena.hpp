// Fixed-size-block bump arena for per-interval scheduler state.
//
// Every materialized Interval of a level needs exactly the same amount of
// backing memory — interval_size one-byte SlotInfo cells, class_count
// 8-byte fulfillment rows, class_count u32 assignment counters (80 B at
// the paper's L1, 912 B at L2, after rounding to kAlign) — so each
// LevelState owns one BlockArena configured with that block size, and
// interval materialization is a single O(1) carve instead of three heap
// allocations (the seed's `slots` / `ful_cache` / `assigned_by_class`
// vectors). The three arrays of one interval are adjacent in memory,
// which also helps the reconcile / acquire hot loops that touch all three.
//
// Lifecycle contract (matches how the scheduler uses interval state):
//   * carve() hands out a zeroed block; blocks are never freed one by one.
//   * reset() rewinds the bump cursor and keeps the chunks for reuse — the
//     EDF emergency path clears a level's intervals wholesale and
//     immediately re-materializes, so reuse avoids re-paying the allocator.
//   * Destruction frees all chunks at once. The n*-rebuild retires
//     a whole generation of interval state by parking the old scheduler and
//     destroying one LevelState — intervals, ledgers, and this arena — per
//     subsequent request ("deferred trimming", trim_retired_step), so no
//     single request pays the teardown.
//
// Not thread-safe; each arena is owned by exactly one scheduler instance.
// In the sharded service layer a per-machine scheduler (and hence each of
// its arenas) is touched by one apply task per batch, on whichever thread
// claims that machine, and the phase is joined before the next batch, so
// arenas need no locking (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace reasched {

class BlockArena {
 public:
  /// Chunks are sized to hold many blocks so carve() rarely touches the
  /// allocator: at least this many bytes, at least kMinBlocksPerChunk blocks.
  static constexpr std::size_t kMinChunkBytes = std::size_t{64} * 1024;
  static constexpr std::size_t kMinBlocksPerChunk = 8;

  BlockArena() = default;
  BlockArena(BlockArena&&) noexcept = default;
  BlockArena& operator=(BlockArena&&) noexcept = default;

  /// Fixes the block size (bytes; rounded up to kAlign). Must be called
  /// once, before the first carve; re-configuring a non-empty arena throws.
  void configure(std::size_t block_bytes) {
    RS_REQUIRE(block_bytes > 0, "BlockArena::configure: zero block size");
    RS_CHECK(blocks_carved_ == 0 && chunks_.empty(),
             "BlockArena::configure: arena already in use");
    block_bytes_ = (block_bytes + kAlign - 1) & ~(kAlign - 1);
    std::size_t chunk_blocks = kMinChunkBytes / block_bytes_;
    if (chunk_blocks < kMinBlocksPerChunk) chunk_blocks = kMinBlocksPerChunk;
    blocks_per_chunk_ = chunk_blocks;
  }

  [[nodiscard]] bool configured() const noexcept { return block_bytes_ != 0; }
  [[nodiscard]] std::size_t block_bytes() const noexcept { return block_bytes_; }

  /// O(1): returns a zeroed block of block_bytes(), aligned to kAlign. The
  /// pointer stays valid until reset() or destruction — chunks never move.
  [[nodiscard]] std::byte* carve() {
    RS_CHECK(configured(), "BlockArena::carve: configure() first");
    if (cursor_chunk_ == chunks_.size()) {
      // Value-initialized: virgin blocks are zero without a per-carve memset
      // (plain operator new[] already aligns to max_align_t).
      chunks_.emplace_back(new std::byte[blocks_per_chunk_ * block_bytes_]());
    }
    std::byte* block = chunks_[cursor_chunk_].get() + cursor_block_ * block_bytes_;
    if (++cursor_block_ == blocks_per_chunk_) {
      cursor_block_ = 0;
      ++cursor_chunk_;
    }
    ++blocks_carved_;
    if (cursor_chunk_ < high_water_chunk_ ||
        (cursor_chunk_ == high_water_chunk_ && cursor_block_ <= high_water_block_)) {
      // Reused memory from before the last reset(): must be re-zeroed.
      std::memset(block, 0, block_bytes_);
      ++blocks_reused_;
    }
    return block;
  }

  /// O(1): rewinds the cursor, keeping the chunks for reuse. Every block
  /// previously carved becomes invalid.
  void reset() noexcept {
    if (cursor_chunk_ > high_water_chunk_ ||
        (cursor_chunk_ == high_water_chunk_ && cursor_block_ > high_water_block_)) {
      high_water_chunk_ = cursor_chunk_;
      high_water_block_ = cursor_block_;
    }
    cursor_chunk_ = 0;
    cursor_block_ = 0;
    blocks_carved_ = 0;
  }

  // ---- introspection (tests, ARCHITECTURE.md numbers) ----
  [[nodiscard]] std::size_t blocks_carved() const noexcept { return blocks_carved_; }
  [[nodiscard]] std::size_t blocks_reused() const noexcept { return blocks_reused_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept { return chunks_.size(); }
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    return chunks_.size() * blocks_per_chunk_ * block_bytes_;
  }

  static constexpr std::size_t kAlign = alignof(std::max_align_t);

 private:
  std::size_t block_bytes_ = 0;
  std::size_t blocks_per_chunk_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t cursor_chunk_ = 0;  // next carve position
  std::size_t cursor_block_ = 0;
  std::size_t high_water_chunk_ = 0;  // carve frontier before the last reset
  std::size_t high_water_block_ = 0;
  std::size_t blocks_carved_ = 0;
  std::size_t blocks_reused_ = 0;
};

}  // namespace reasched
