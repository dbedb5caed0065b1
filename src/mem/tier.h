// One memory tier: a frame pool plus the latency profile of its technology.

#ifndef MEMTIS_SIM_SRC_MEM_TIER_H_
#define MEMTIS_SIM_SRC_MEM_TIER_H_

#include <cstdint>
#include <string>

#include "src/mem/buddy_allocator.h"
#include "src/mem/types.h"

namespace memtis {

// Latency profile of a memory technology in nanoseconds per access. Values
// follow the paper's setup: DRAM ~100 ns load, Optane DCPMM 300 ns load (and a
// higher store cost), emulated CXL 177 ns load.
struct TierLatency {
  uint64_t load_ns = 100;
  uint64_t store_ns = 100;
};

inline constexpr TierLatency kDramLatency{.load_ns = 100, .store_ns = 100};
inline constexpr TierLatency kNvmLatency{.load_ns = 300, .store_ns = 400};
inline constexpr TierLatency kCxlLatency{.load_ns = 177, .store_ns = 187};

class MemoryTier {
 public:
  MemoryTier(TierId id, std::string name, uint64_t num_frames, TierLatency latency)
      : id_(id), name_(std::move(name)), latency_(latency), allocator_(num_frames) {}

  TierId id() const { return id_; }
  const std::string& name() const { return name_; }
  const TierLatency& latency() const { return latency_; }

  BuddyAllocator& allocator() { return allocator_; }
  const BuddyAllocator& allocator() const { return allocator_; }

  uint64_t total_frames() const { return allocator_.total_frames(); }
  uint64_t free_frames() const { return allocator_.free_frames(); }
  uint64_t used_frames() const { return allocator_.used_frames(); }

 private:
  TierId id_;
  std::string name_;
  TierLatency latency_;
  BuddyAllocator allocator_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_TIER_H_
