#include <gtest/gtest.h>

#include "core/alignment.hpp"
#include "util/rng.hpp"

namespace reasched {
namespace {

TEST(AlignedShrink, AlreadyAlignedIsIdentity) {
  const Window w{64, 128};
  EXPECT_EQ(aligned_shrink(w), w);
}

TEST(AlignedShrink, SpanOneIsIdentity) {
  const Window w{37, 38};
  EXPECT_EQ(aligned_shrink(w), w);
}

TEST(AlignedShrink, ShrinksToLargestAlignedSubwindow) {
  // [1, 9): span 8; the largest aligned sub-window is [4, 8) (span 4).
  const Window result = aligned_shrink(Window{1, 9});
  EXPECT_TRUE(result.aligned());
  EXPECT_TRUE(Window(1, 9).contains(result));
  EXPECT_EQ(result, Window(4, 8));
}

TEST(AlignedShrink, KeepsFullPow2WhenItFits) {
  // [8, 17): span 9; an aligned span-8 window [8, 16) fits.
  EXPECT_EQ(aligned_shrink(Window{8, 17}), Window(8, 16));
}

TEST(AlignedShrink, QuarterSpanLowerBound) {
  // Paper §5: |ALIGNED(W)| >= |W|/4 (strictly more than |W|/4 in this
  // implementation, which always keeps at least 2^{floor(lg|W|)-1}).
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const Time start = static_cast<Time>(rng.uniform(0, 1u << 20));
    const Time span = static_cast<Time>(rng.uniform(1, 1u << 12));
    const Window w{start, start + span};
    const Window a = aligned_shrink(w);
    EXPECT_TRUE(a.aligned()) << w;
    EXPECT_TRUE(w.contains(a)) << w;
    EXPECT_GT(a.span() * 4, w.span()) << w << " -> " << a;
  }
}

TEST(AlignedShrink, NegativeTimelineWorks) {
  const Window w{-100, -60};  // span 40
  const Window a = aligned_shrink(w);
  EXPECT_TRUE(a.aligned());
  EXPECT_TRUE(w.contains(a));
  EXPECT_GT(a.span() * 4, w.span());
}

TEST(AlignedShrink, RejectsEmptyWindow) {
  EXPECT_THROW((void)aligned_shrink(Window{3, 3}), ContractViolation);
}

TEST(AlignedShrink, DeterministicLeftmost) {
  // [0, 12): both [0,8) and (if it existed) another span-8 block could be
  // candidates; the implementation picks the leftmost: [0, 8).
  EXPECT_EQ(aligned_shrink(Window{0, 12}), Window(0, 8));
  // [3, 15): span-8 block [8,16) does not fit (ends at 16 > 15); falls back
  // to span 4: leftmost aligned span-4 inside is [4, 8).
  EXPECT_EQ(aligned_shrink(Window{3, 15}), Window(4, 8));
}

TEST(AllAligned, DetectsMisalignment) {
  std::vector<JobSpec> jobs = {
      {JobId{1}, Window{0, 8}},
      {JobId{2}, Window{8, 16}},
  };
  EXPECT_TRUE(all_aligned(jobs));
  jobs.push_back({JobId{3}, Window{1, 9}});
  EXPECT_FALSE(all_aligned(jobs));
}

}  // namespace
}  // namespace reasched
