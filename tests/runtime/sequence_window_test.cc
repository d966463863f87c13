// SequenceWindow: the reorder window under the ordered sink. Verified
// here: items put in any order leave in sequence order, only the
// contiguous prefix at the front is ever ready, the window grows far past
// its first allocation without losing or reordering items, and Reset
// moves the front to a restored cursor.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/sequence_window.h"
#include "util/rng.h"

namespace navarchos {
namespace {

using runtime::SequenceWindow;

TEST(SequenceWindowTest, ItemsPutInAnyOrderLeaveInSequenceOrder) {
  std::vector<std::uint64_t> seqs(1000);
  for (std::size_t i = 0; i < seqs.size(); ++i) seqs[i] = i;
  util::Rng rng(7);
  rng.Shuffle(seqs);

  SequenceWindow<std::uint64_t> window;
  std::vector<std::uint64_t> popped;
  for (const std::uint64_t seq : seqs) {
    window.Put(seq, seq * 10);
    while (window.FrontReady()) popped.push_back(window.PopFront());
  }
  ASSERT_EQ(popped.size(), seqs.size());
  for (std::size_t i = 0; i < popped.size(); ++i)
    ASSERT_EQ(popped[i], i * 10);
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.front(), seqs.size());
}

TEST(SequenceWindowTest, OnlyTheContiguousPrefixIsReady) {
  SequenceWindow<int> window;
  EXPECT_FALSE(window.FrontReady());
  window.Put(1, 1);
  window.Put(2, 2);
  window.Put(4, 4);
  EXPECT_FALSE(window.FrontReady());  // seq 0 is missing
  EXPECT_FALSE(window.empty());
  window.Put(0, 0);
  std::vector<int> popped;
  while (window.FrontReady()) popped.push_back(window.PopFront());
  EXPECT_EQ(popped, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(window.front(), 3u);
  EXPECT_FALSE(window.empty());  // seq 4 waits behind the gap at 3
  window.Put(3, 3);
  EXPECT_EQ(window.PopFront(), 3);
  EXPECT_EQ(window.PopFront(), 4);
  EXPECT_FALSE(window.FrontReady());
  EXPECT_TRUE(window.empty());
}

TEST(SequenceWindowTest, GrowsFarPastItsFirstAllocation) {
  // The stalled-front case: seq 0 arrives last, after 100,000 later items,
  // far more than any lane capacity. Nothing may be lost or reordered, and
  // move-only payloads must survive the growth.
  constexpr std::uint64_t kBehind = 100000;
  SequenceWindow<std::unique_ptr<std::uint64_t>> window;
  for (std::uint64_t seq = kBehind; seq >= 1; --seq) {
    window.Put(seq, std::make_unique<std::uint64_t>(seq));
    ASSERT_FALSE(window.FrontReady());
  }
  window.Put(0, std::make_unique<std::uint64_t>(0));
  for (std::uint64_t seq = 0; seq <= kBehind; ++seq) {
    ASSERT_TRUE(window.FrontReady());
    ASSERT_EQ(*window.PopFront(), seq);
  }
  EXPECT_TRUE(window.empty());

  // A single far item beyond an empty window is held just the same.
  window.Put(kBehind * 3, std::make_unique<std::uint64_t>(7));
  EXPECT_FALSE(window.FrontReady());
  EXPECT_FALSE(window.empty());
}

TEST(SequenceWindowTest, ResetMovesTheFrontToARestoredCursor) {
  SequenceWindow<int> window;
  window.Put(0, 0);
  window.Put(5, 5);  // dropped by the reset
  EXPECT_EQ(window.PopFront(), 0);

  window.Reset(1000);
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.front(), 1000u);
  window.Put(1001, 1);
  EXPECT_FALSE(window.FrontReady());
  window.Put(1000, 0);
  EXPECT_EQ(window.PopFront(), 0);
  EXPECT_EQ(window.PopFront(), 1);
  EXPECT_EQ(window.front(), 1002u);
}

}  // namespace
}  // namespace navarchos
