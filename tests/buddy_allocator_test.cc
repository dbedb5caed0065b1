#include "src/mem/buddy_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/snapshot/state_codec.h"

namespace memtis {
namespace {

TEST(BuddyAllocator, StartsFullyFree) {
  BuddyAllocator buddy(1024);
  EXPECT_EQ(buddy.total_frames(), 1024u);
  EXPECT_EQ(buddy.free_frames(), 1024u);
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
  EXPECT_TRUE(buddy.CheckConsistency());
}

TEST(BuddyAllocator, RoundsDownToHugeMultiple) {
  BuddyAllocator buddy(1000);
  EXPECT_EQ(buddy.total_frames(), 512u);
}

TEST(BuddyAllocator, AllocateAndFreeBasePage) {
  BuddyAllocator buddy(1024);
  auto frame = buddy.Allocate(0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(buddy.free_frames(), 1023u);
  EXPECT_TRUE(buddy.CheckConsistency());
  buddy.Free(*frame, 0);
  EXPECT_EQ(buddy.free_frames(), 1024u);
  EXPECT_TRUE(buddy.CheckConsistency());
  // After freeing everything, merging must restore a full huge block.
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
}

TEST(BuddyAllocator, HugeAllocationIsAligned) {
  BuddyAllocator buddy(4096);
  for (int i = 0; i < 8; ++i) {
    auto frame = buddy.Allocate(BuddyAllocator::kMaxOrder);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame % 512, 0u);
  }
  EXPECT_FALSE(buddy.Allocate(BuddyAllocator::kMaxOrder).has_value());
  EXPECT_EQ(buddy.free_frames(), 0u);
}

TEST(BuddyAllocator, ExhaustionReturnsNullopt) {
  BuddyAllocator buddy(512);
  std::vector<FrameId> frames;
  for (int i = 0; i < 512; ++i) {
    auto frame = buddy.Allocate(0);
    ASSERT_TRUE(frame.has_value());
    frames.push_back(*frame);
  }
  EXPECT_FALSE(buddy.Allocate(0).has_value());
  // All frames must be distinct.
  std::sort(frames.begin(), frames.end());
  EXPECT_TRUE(std::adjacent_find(frames.begin(), frames.end()) == frames.end());
}

TEST(BuddyAllocator, FragmentationBlocksHugeAllocations) {
  BuddyAllocator buddy(1024);
  auto a = buddy.Allocate(0);
  ASSERT_TRUE(a.has_value());
  auto b = buddy.Allocate(BuddyAllocator::kMaxOrder);
  ASSERT_TRUE(b.has_value());
  // 511 frames free but scattered within one huge block: no huge allocation.
  EXPECT_EQ(buddy.free_frames(), 511u);
  EXPECT_FALSE(buddy.CanAllocate(BuddyAllocator::kMaxOrder));
  buddy.Free(*a, 0);
  EXPECT_TRUE(buddy.CanAllocate(BuddyAllocator::kMaxOrder));
}

TEST(BuddyAllocator, SplitAndMergeRestoresHugeBlocks) {
  BuddyAllocator buddy(512);
  std::vector<FrameId> frames;
  for (int i = 0; i < 512; ++i) {
    frames.push_back(*buddy.Allocate(0));
  }
  for (FrameId f : frames) {
    buddy.Free(f, 0);
  }
  EXPECT_TRUE(buddy.CanAllocate(BuddyAllocator::kMaxOrder));
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
  EXPECT_TRUE(buddy.CheckConsistency());
}

TEST(BuddyAllocator, MixedOrderStressStaysConsistent) {
  BuddyAllocator buddy(8192);
  Rng rng(123);
  std::vector<std::pair<FrameId, int>> held;
  for (int step = 0; step < 5000; ++step) {
    if (held.empty() || rng.NextBool(0.55)) {
      const int order = rng.NextBool(0.2) ? BuddyAllocator::kMaxOrder
                                          : static_cast<int>(rng.NextBelow(4));
      auto frame = buddy.Allocate(order);
      if (frame.has_value()) {
        held.emplace_back(*frame, order);
      }
    } else {
      const size_t pick = rng.NextBelow(held.size());
      buddy.Free(held[pick].first, held[pick].second);
      held[pick] = held.back();
      held.pop_back();
    }
  }
  EXPECT_TRUE(buddy.CheckConsistency());
  for (auto& [frame, order] : held) {
    buddy.Free(frame, order);
  }
  EXPECT_EQ(buddy.free_frames(), buddy.total_frames());
  EXPECT_TRUE(buddy.CheckConsistency());
  EXPECT_DOUBLE_EQ(buddy.huge_block_ratio(), 1.0);
}

class BuddyOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(BuddyOrderTest, AllocationIsAlignedToOrder) {
  const int order = GetParam();
  BuddyAllocator buddy(4096);
  auto frame = buddy.Allocate(order);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame & ((1ULL << order) - 1), 0u);
  EXPECT_EQ(buddy.free_frames(), 4096u - (1ULL << order));
  buddy.Free(*frame, order);
  EXPECT_EQ(buddy.free_frames(), 4096u);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, BuddyOrderTest,
                         ::testing::Range(0, BuddyAllocator::kMaxOrder + 1));

// --- Exactness of CheckConsistency's word-parallel coverage scan --------------

using Pushes = std::vector<std::pair<FrameId, int>>;

// A buddy allocator with every frame allocated, so its free lists hold exactly
// the blocks a test then pushes.
BuddyAllocator Exhausted(uint64_t frames) {
  BuddyAllocator buddy(frames);
  while (buddy.Allocate(BuddyAllocator::kMaxOrder).has_value()) {
  }
  EXPECT_EQ(buddy.free_frames(), 0u);
  return buddy;
}

// Per-frame reference for the pushes' verdict: walks the free lists in the
// allocator's order (orders ascending, each list newest push first) with one
// byte per frame and reports the first frame covered twice, or the free-frame
// mismatch the pushes cause. "" means consistent.
std::string PerFrameVerdict(uint64_t frames, const Pushes& pushes,
                            uint64_t free_frames) {
  std::vector<uint8_t> covered(frames, 0);
  uint64_t counted = 0;
  for (int order = 0; order <= BuddyAllocator::kMaxOrder; ++order) {
    for (auto it = pushes.rbegin(); it != pushes.rend(); ++it) {
      if (it->second != order) {
        continue;
      }
      for (uint64_t i = 0; i < (1ULL << order); ++i) {
        if (covered[it->first + i]) {
          return "frame " + std::to_string(it->first + i) +
                 " covered by two free blocks";
        }
        covered[it->first + i] = 1;
      }
      counted += 1ULL << order;
    }
  }
  if (counted != free_frames) {
    return "free lists hold " + std::to_string(counted) +
           " frames but free_frames() is " + std::to_string(free_frames);
  }
  return "";
}

std::string Verdict(const BuddyAllocator& buddy) {
  std::string error;
  return buddy.CheckConsistency(&error) ? "" : error;
}

TEST(BuddyConsistency, NestedOverlapAtEveryOrderNamesTheFirstSharedFrame) {
  constexpr uint64_t kFrames = 2048;
  constexpr FrameId kBase = 1024;  // outer blocks sit at one order-9 slot
  int checked = 0;
  for (int inner = 0; inner < BuddyAllocator::kMaxOrder; ++inner) {
    for (int outer = inner + 1; outer <= BuddyAllocator::kMaxOrder; ++outer) {
      const uint64_t inner_size = 1ULL << inner;
      const uint64_t outer_size = 1ULL << outer;
      // Inner heads: the first slot past the outer head, the middle slot and
      // the last slot (mid-word, word-boundary and last-bit frames alike).
      const std::set<uint64_t> offsets = {inner_size, outer_size / 2,
                                          outer_size / 2 + inner_size,
                                          outer_size - inner_size};
      for (uint64_t offset : offsets) {
        if (offset + inner_size > outer_size) {
          continue;
        }
        for (bool inject_outer : {false, true}) {
          Pushes pushes = {{kBase, outer}, {kBase + offset, inner}};
          if (inject_outer) {
            std::swap(pushes[0], pushes[1]);
          }
          BuddyAllocator buddy = Exhausted(kFrames);
          for (const auto& [frame, order] : pushes) {
            buddy.TestOnlyPushFree(frame, order);
          }
          const std::string expected = PerFrameVerdict(kFrames, pushes, 0);
          ASSERT_EQ(expected, "frame " + std::to_string(kBase + offset) +
                                  " covered by two free blocks");
          EXPECT_EQ(Verdict(buddy), expected)
              << "inner order " << inner << " at +" << offset << ", outer order "
              << outer;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 200);
}

TEST(BuddyConsistency, RandomLayoutsMatchThePerFrameWalk) {
  constexpr uint64_t kFrames = 4096;
  Rng rng(2023);
  int overlaps = 0;
  int mid_word = 0;
  int word_edge = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    BuddyAllocator buddy = Exhausted(kFrames);
    Pushes pushes;
    std::set<FrameId> heads;
    const uint64_t blocks = 1 + rng.NextBelow(16);
    for (uint64_t b = 0; b < blocks; ++b) {
      // Favour small orders so several blocks share a coverage word.
      const uint64_t orders = rng.NextBool(0.7) ? 7 : BuddyAllocator::kMaxOrder + 1;
      const int order = static_cast<int>(rng.NextBelow(orders));
      // Confine most blocks to one order-9 slot so they collide often.
      const uint64_t span = rng.NextBool(0.8) ? 512 : kFrames;
      const FrameId frame = rng.NextBelow(span >> order) << order;
      if (!heads.insert(frame).second) {
        continue;  // a head pushed twice is a different fault (state clash)
      }
      pushes.emplace_back(frame, order);
      buddy.TestOnlyPushFree(frame, order);
    }
    const std::string expected = PerFrameVerdict(kFrames, pushes, 0);
    ASSERT_EQ(Verdict(buddy), expected) << "trial " << trial;
    if (expected.rfind("frame ", 0) == 0) {
      const uint64_t frame = std::stoull(expected.substr(6));
      ++overlaps;
      (frame % 64 == 0 || frame % 64 == 63 ? word_edge : mid_word) += 1;
    }
  }
  EXPECT_GT(overlaps, 2000);
  EXPECT_GT(mid_word, 200);
  EXPECT_GT(word_edge, 100);
}

// BuddyAllocator::VisitState's stream: total_frames and free_frames, one
// state byte per frame, then per order a count and its frame ids — all words
// 64-bit little-endian.
std::string SaveBuddy(BuddyAllocator& buddy) {
  StateWriter w;
  StateCodec codec(w);
  buddy.VisitState(codec);
  return w.Take();
}

// Loads `image` into `buddy`; false when the load failed or left bytes over.
bool LoadBuddy(BuddyAllocator& buddy, const std::string& image) {
  StateReader r(image);
  StateCodec codec(r);
  buddy.VisitState(codec);
  return r.Done();
}

// Offset of word k in the image of a `frames`-frame allocator: words 0 and 1
// precede the state bytes (frame f's at offset 16 + f), the rest follow them.
size_t WordOffset(uint64_t frames, size_t k) {
  return k < 2 ? 8 * k : 16 + frames + 8 * (k - 2);
}
uint64_t WordAt(const std::string& image, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 8; i-- > 0;) {
    v = v << 8 | static_cast<uint8_t>(image[offset + i]);
  }
  return v;
}
void SetWordAt(std::string& image, size_t offset, uint64_t v) {
  for (size_t i = 0; i < 8; ++i, v >>= 8) {
    image[offset + i] = static_cast<char>(v & 0xFF);
  }
}

TEST(BuddyConsistency, StrayHeadsMissingFromTheirListsAreReported) {
  // Stray counts that land in one byte, one word, across words and across
  // 64-frame chunks of the state scan.
  for (uint64_t strays : {1u, 2u, 9u, 65u, 100u}) {
    BuddyAllocator buddy(1024);
    std::vector<FrameId> taken;
    for (uint64_t i = 0; i < strays; ++i) {
      taken.push_back(*buddy.Allocate(0));
    }
    ASSERT_TRUE(buddy.CheckConsistency());
    uint64_t listed = 0;
    for (uint64_t n : buddy.FreeBlockCounts()) {
      listed += n;
    }
    // A snapshot whose state bytes mark allocated frames as order-0 heads
    // that no free list holds: freeing a buddy of one would "merge" with it.
    std::string image = SaveBuddy(buddy);
    for (FrameId frame : taken) {
      image[16 + frame] = 1;
    }
    ASSERT_TRUE(LoadBuddy(buddy, image));
    EXPECT_EQ(Verdict(buddy), std::to_string(listed + strays) +
                                  " frames marked as free-block heads but free "
                                  "lists hold " +
                                  std::to_string(listed) + " blocks")
        << strays << " strays";
  }
}

// --- Snapshot format: free lists, not per-frame links --------------------------

using Held = std::vector<std::pair<FrameId, int>>;

// One random Allocate or Free, applied with the same arguments to every
// allocator in `twins`; a twin whose Allocate result differs from the first's
// fails the test.
void ChurnStep(const std::vector<BuddyAllocator*>& twins, Held& held, Rng& rng) {
  if (held.empty() || rng.NextBool(0.55)) {
    const int order = rng.NextBool(0.1) ? BuddyAllocator::kMaxOrder
                                        : static_cast<int>(rng.NextBelow(5));
    const std::optional<FrameId> frame = twins[0]->Allocate(order);
    for (size_t i = 1; i < twins.size(); ++i) {
      EXPECT_EQ(twins[i]->Allocate(order), frame) << "order " << order;
    }
    if (frame.has_value()) {
      held.emplace_back(*frame, order);
    }
    return;
  }
  const size_t pick = rng.NextBelow(held.size());
  const auto [frame, order] = held[pick];
  for (BuddyAllocator* twin : twins) {
    twin->Free(frame, order);
  }
  held[pick] = held.back();
  held.pop_back();
}

TEST(BuddySnapshot, RoundTripRestoresListsAndFutureAllocations) {
  constexpr uint64_t kFrames = 8192;
  BuddyAllocator original(kFrames);
  Held held;
  Rng rng(77);
  for (int step = 0; step < 3000; ++step) {
    ChurnStep({&original}, held, rng);
  }
  const auto counts = original.FreeBlockCounts();
  uint64_t blocks = 0;
  int nonempty_orders = 0;
  for (uint64_t n : counts) {
    blocks += n;
    nonempty_orders += n != 0;
  }
  ASSERT_GE(nonempty_orders, 4) << "churn left too few orders fragmented";

  const std::string saved = SaveBuddy(original);
  // total + free + one state byte per frame + per order a count and its ids.
  EXPECT_EQ(saved.size(),
            8 + 8 + kFrames + 8 * (BuddyAllocator::kMaxOrder + 1 + blocks));
  BuddyAllocator restored(kFrames);
  ASSERT_TRUE(LoadBuddy(restored, saved));
  EXPECT_EQ(restored.FreeBlockCounts(), counts);
  EXPECT_EQ(restored.free_frames(), original.free_frames());
  std::string error;
  EXPECT_TRUE(restored.CheckConsistency(&error)) << error;
  EXPECT_EQ(SaveBuddy(restored), saved);

  // Free-list order survived: the restored allocator and the un-restored
  // twin hand out the same frames from here on.
  for (int step = 0; step < 1000; ++step) {
    ChurnStep({&original, &restored}, held, rng);
    if (HasFailure()) {
      FAIL() << "twins diverged at step " << step;
    }
  }
  EXPECT_EQ(restored.FreeBlockCounts(), original.FreeBlockCounts());
  EXPECT_TRUE(restored.CheckConsistency(&error)) << error;
}

TEST(BuddySnapshot, OutOfRangeCountsAndFrameIdsLatchFail) {
  constexpr uint64_t kFrames = 1024;
  BuddyAllocator buddy(kFrames);
  for (int i = 0; i < 3; ++i) {
    buddy.Allocate(0);  // leaves one free order-0 block
  }
  const std::string saved = SaveBuddy(buddy);
  // words: total_frames, free_frames, then per order a count and its ids.
  ASSERT_EQ(WordAt(saved, WordOffset(kFrames, 2)), 1u);  // order 0 holds one block...
  constexpr size_t kCount = 2;
  constexpr size_t kFirstId = 3;  // ...whose id follows its count
  constexpr size_t kUnedited = ~size_t{0};

  const auto load = [&](size_t word, uint64_t value) {
    std::string image = saved;
    if (word != kUnedited) {
      SetWordAt(image, WordOffset(kFrames, word), value);
    }
    BuddyAllocator fresh(kFrames);
    return !LoadBuddy(fresh, image);
  };
  EXPECT_FALSE(load(kUnedited, 0)) << "unedited image must load";
  // The loader checks before it indexes its links (ASan pins the "before"),
  // so none of these may touch memory past the tier.
  EXPECT_TRUE(load(kCount, kFrames + 1));
  EXPECT_TRUE(load(kCount, ~0ULL));
  EXPECT_TRUE(load(kFirstId, kFrames));
  EXPECT_TRUE(load(kFirstId, 1ULL << 60));
  EXPECT_TRUE(load(kFirstId, ~0ULL));
  // A wrong tier size is rejected before anything else is read.
  EXPECT_TRUE(load(0, kFrames * 2));

  // A list longer than the tier is rejected by its count, even when every id
  // in it is in range: a truncated payload reads as zeros, so the count is
  // what bounds the relinking loop.
  StateWriter w;
  w.U64(kFrames);
  w.U64(kFrames);
  const std::vector<uint8_t> state(kFrames, 0);
  w.Bytes(state.data(), state.size());
  w.U64(kFrames + 1);
  for (uint64_t i = 0; i <= kFrames; ++i) {
    w.U64(0);
  }
  for (int order = 1; order <= BuddyAllocator::kMaxOrder; ++order) {
    w.U64(0);
  }
  BuddyAllocator fresh(kFrames);
  StateReader r(w.data());
  StateCodec codec(r);
  fresh.VisitState(codec);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace memtis
