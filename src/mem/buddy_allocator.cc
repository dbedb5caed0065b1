#include "src/mem/buddy_allocator.h"

#include <bit>
#include <cstring>

#include "src/common/check.h"

namespace memtis {

BuddyAllocator::BuddyAllocator(uint64_t num_frames) {
  const uint64_t block = 1ULL << kMaxOrder;
  total_frames_ = num_frames / block * block;
  SIM_CHECK_GT(total_frames_, 0u);
  links_.resize(total_frames_);
  state_.assign(total_frames_, 0);
  for (auto& head : free_head_) {
    head = kNil;
  }
  for (FrameId f = 0; f < total_frames_; f += block) {
    PushFree(f, kMaxOrder);
  }
  free_frames_ = total_frames_;
}

void BuddyAllocator::PushFree(FrameId frame, int order) {
  SIM_DCHECK(state_[frame] == 0);
  state_[frame] = static_cast<uint8_t>(order + 1);
  links_[frame].prev = kNil;
  links_[frame].next = free_head_[order];
  if (free_head_[order] != kNil) {
    links_[free_head_[order]].prev = frame;
  }
  free_head_[order] = frame;
}

void BuddyAllocator::RemoveFree(FrameId frame, int order) {
  SIM_DCHECK(IsFreeHead(frame, order));
  const FrameId prev = links_[frame].prev;
  const FrameId next = links_[frame].next;
  if (prev != kNil) {
    links_[prev].next = next;
  } else {
    free_head_[order] = next;
  }
  if (next != kNil) {
    links_[next].prev = prev;
  }
  state_[frame] = 0;
}

bool BuddyAllocator::IsFreeHead(FrameId frame, int order) const {
  return frame < total_frames_ && state_[frame] == static_cast<uint8_t>(order + 1);
}

std::optional<FrameId> BuddyAllocator::Allocate(int order) {
  SIM_CHECK(order >= 0 && order <= kMaxOrder);
  int found = -1;
  for (int o = order; o <= kMaxOrder; ++o) {
    if (free_head_[o] != kNil) {
      found = o;
      break;
    }
  }
  if (found < 0) {
    return std::nullopt;
  }
  FrameId frame = free_head_[found];
  RemoveFree(frame, found);
  // Split down to the requested order, returning the lower half each time.
  while (found > order) {
    --found;
    const FrameId upper = frame + (1ULL << found);
    PushFree(upper, found);
  }
  free_frames_ -= 1ULL << order;
  return frame;
}

void BuddyAllocator::Free(FrameId frame, int order) {
  SIM_CHECK(order >= 0 && order <= kMaxOrder);
  SIM_CHECK_LT(frame, total_frames_);
  SIM_CHECK_EQ(frame & ((1ULL << order) - 1), 0u);
  SIM_CHECK_EQ(state_[frame], 0);  // double-free guard (only exact for heads)
  free_frames_ += 1ULL << order;
  while (order < kMaxOrder) {
    const FrameId buddy = frame ^ (1ULL << order);
    if (!IsFreeHead(buddy, order)) {
      break;
    }
    RemoveFree(buddy, order);
    frame = frame < buddy ? frame : buddy;
    ++order;
  }
  PushFree(frame, order);
}

bool BuddyAllocator::CanAllocate(int order) const {
  SIM_CHECK(order >= 0 && order <= kMaxOrder);
  for (int o = order; o <= kMaxOrder; ++o) {
    if (free_head_[o] != kNil) {
      return true;
    }
  }
  return false;
}

double BuddyAllocator::huge_block_ratio() const {
  if (free_frames_ == 0) {
    return 1.0;
  }
  uint64_t huge_free = 0;
  for (FrameId f = free_head_[kMaxOrder]; f != kNil; f = links_[f].next) {
    huge_free += 1ULL << kMaxOrder;
  }
  return static_cast<double>(huge_free) / static_cast<double>(free_frames_);
}

bool BuddyAllocator::CheckConsistency(std::string* error) const {
  const auto fail = [error](std::string detail) {
    if (error != nullptr) {
      *error = std::move(detail);
    }
    return false;
  };
  // One coverage bit per frame. total_frames_ is a multiple of 512, so the
  // words tile the frames exactly; an aligned block below 64 frames lies in
  // one word, a larger one spans whole words.
  std::vector<uint64_t> covered(total_frames_ / 64, 0);
  const auto overlap = [&fail](uint64_t word, uint64_t hit) {
    // The lowest doubly-covered frame: the one a per-frame walk reports.
    return fail("frame " + std::to_string(word * 64 + std::countr_zero(hit)) +
                " covered by two free blocks");
  };
  uint64_t counted = 0;
  uint64_t listed = 0;
  for (int order = 0; order <= kMaxOrder; ++order) {
    const uint64_t size = 1ULL << order;
    for (FrameId f = free_head_[order]; f != kNil; f = links_[f].next) {
      if (!IsFreeHead(f, order)) {
        return fail("frame " + std::to_string(f) + " on order-" +
                    std::to_string(order) + " free list has state " +
                    std::to_string(state_[f]));
      }
      if ((f & (size - 1)) != 0) {
        return fail("misaligned order-" + std::to_string(order) + " free block at " +
                    std::to_string(f));
      }
      if (size < 64) {
        uint64_t& word = covered[f / 64];
        const uint64_t mask = ((1ULL << size) - 1) << (f % 64);
        if ((word & mask) != 0) {
          return overlap(f / 64, word & mask);
        }
        word |= mask;
      } else {
        for (uint64_t w = f / 64; w < (f + size) / 64; ++w) {
          if (covered[w] != 0) {
            return overlap(w, covered[w]);
          }
          covered[w] = ~0ULL;
        }
      }
      counted += size;
      ++listed;
    }
  }
  if (counted != free_frames_) {
    return fail("free lists hold " + std::to_string(counted) +
                " frames but free_frames() is " + std::to_string(free_frames_));
  }
  // Converse of the IsFreeHead test above: every frame marked as a head must
  // be listed, or Free()'s buddy merge would unlink a block no list holds.
  // Counts nonzero state bytes 64 at a time. An all-zero chunk (most of a
  // tier) costs one OR of eight words; otherwise a byte's high bit is set iff
  // the byte is nonzero, and the multiply sums a word's eight 0/1 bytes.
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  uint64_t heads = 0;
  for (uint64_t f = 0; f < total_frames_; f += 64) {
    uint64_t chunk[8];
    std::memcpy(chunk, state_.data() + f, sizeof(chunk));
    uint64_t any = 0;
    for (uint64_t bytes : chunk) {
      any |= bytes;
    }
    if (any == 0) {
      continue;
    }
    for (uint64_t bytes : chunk) {
      const uint64_t nonzero = (((bytes & kLow7) + kLow7) | bytes) & ~kLow7;
      heads += ((nonzero >> 7) * 0x0101010101010101ULL) >> 56;
    }
  }
  if (heads != listed) {
    return fail(std::to_string(heads) + " frames marked as free-block heads but " +
                "free lists hold " + std::to_string(listed) + " blocks");
  }
  return true;
}

void BuddyAllocator::TestOnlyPushFree(FrameId frame, int order) {
  PushFree(frame, order);
}

std::array<uint64_t, BuddyAllocator::kMaxOrder + 1> BuddyAllocator::FreeBlockCounts()
    const {
  std::array<uint64_t, kMaxOrder + 1> counts{};
  for (int order = 0; order <= kMaxOrder; ++order) {
    for (FrameId f = free_head_[order]; f != kNil; f = links_[f].next) {
      ++counts[order];
    }
  }
  return counts;
}

std::vector<FrameId> BuddyAllocator::FreeList(FrameId head) const {
  std::vector<FrameId> list;
  for (FrameId f = head; f != kNil && list.size() < total_frames_; f = links_[f].next) {
    list.push_back(f);
  }
  return list;
}

void BuddyAllocator::Relink(StateCodec& c, FrameId& head,
                            const std::vector<FrameId>& list) {
  head = kNil;
  if (list.size() > total_frames_) {
    c.Fail();
    return;
  }
  FrameId tail = kNil;
  for (const FrameId f : list) {
    if (f >= total_frames_) {
      c.Fail();
      return;
    }
    links_[f] = Block{kNil, tail};
    (tail == kNil ? head : links_[tail].next) = f;
    tail = f;
  }
}

}  // namespace memtis
