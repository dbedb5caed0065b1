// Binary buddy allocator for physical frames within one memory tier.
//
// Orders 0..kHugeOrder (4 KiB .. 2 MiB). Huge pages are real order-9
// allocations, so fragmentation behaves like the kernel's: once a tier is
// fragmented by base-page churn, huge allocations can fail even with enough
// total free frames — exactly the situation THP-aware policies must handle.

#ifndef MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_
#define MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/mem/types.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

class BuddyAllocator {
 public:
  static constexpr int kMaxOrder = static_cast<int>(kHugeOrder);

  // num_frames is rounded down to a multiple of the largest block size so the
  // frame array tiles cleanly into order-9 blocks.
  explicit BuddyAllocator(uint64_t num_frames);

  // Allocates a block of 2^order contiguous frames; returns the first frame.
  std::optional<FrameId> Allocate(int order);

  // Frees a block previously returned by Allocate with the same order.
  void Free(FrameId frame, int order);

  // True if an allocation of the given order would currently succeed.
  bool CanAllocate(int order) const;

  uint64_t total_frames() const { return total_frames_; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t used_frames() const { return total_frames_ - free_frames_; }

  // Fraction of free memory that sits in order-kMaxOrder blocks; 1.0 means the
  // free space is fully defragmented. Diagnostic only.
  double huge_block_ratio() const;

  // Internal-consistency audit used by tests and the runtime auditor: walks
  // all free lists and checks block alignment, no overlaps, that
  // free_frames() matches, and that every frame marked as a free-block head is
  // on a list. The diagnostic variant describes the first
  // inconsistency found in `error` (unchanged when consistent).
  bool CheckConsistency(std::string* error = nullptr) const;

  // Fault injection for the consistency tests: queues a free block without
  // touching free_frames() or checking for overlap.
  void TestOnlyPushFree(FrameId frame, int order);

  // Number of free blocks currently queued at each order (walks the free
  // lists; diagnostic/observability only).
  std::array<uint64_t, kMaxOrder + 1> FreeBlockCounts() const;

  // Checkpointing. Free-list *order* matters for determinism (Allocate pops
  // the head), so each list is saved head to tail — a count, then its frame
  // ids — and relinked in that order; links_ is meaningful only for listed
  // frames, so it is not saved. state_ is saved verbatim. total_frames_ is
  // configuration — the loader cross-checks it and rejects a mismatched
  // snapshot, as it does any count or frame id past the tier. The loader
  // never consults state_ to decide which links to rebuild: the lists
  // restore exactly as saved, and CheckConsistency judges the pair.
  void VisitState(StateCodec& c) {
    c.Check("total_frames", total_frames_);
    c.Field("free_frames", free_frames_);
    c.Array("state", std::span(state_));
    if (c.loading()) {
      std::fill(links_.begin(), links_.end(), Block{kNil, kNil});
    }
    for (FrameId& head : free_head_) {
      c.Mapped("free_list", [&] { return FreeList(head); },
               [&](const std::vector<FrameId>& list) { Relink(c, head, list); });
    }
  }

 private:
  struct Block {
    FrameId next;
    FrameId prev;
  };

  static constexpr FrameId kNil = static_cast<FrameId>(-1);

  void PushFree(FrameId frame, int order);
  void RemoveFree(FrameId frame, int order);

  bool IsFreeHead(FrameId frame, int order) const;

  // A free list head to tail (bounded: a cyclic list cannot run away), and
  // its restore, which checks every id before it indexes the links.
  std::vector<FrameId> FreeList(FrameId head) const;
  void Relink(StateCodec& c, FrameId& head, const std::vector<FrameId>& list);

  uint64_t total_frames_ = 0;
  uint64_t free_frames_ = 0;
  // head of free list per order
  FrameId free_head_[kMaxOrder + 1];
  // link storage per frame (only meaningful while the frame heads a free block)
  std::vector<Block> links_;
  // state_[f]: 0 = not a free-block head; otherwise order + 1 of the free block
  std::vector<uint8_t> state_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_BUDDY_ALLOCATOR_H_
