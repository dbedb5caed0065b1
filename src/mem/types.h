// Core address/page types shared across the simulator.
//
// The simulated machine uses x86-64-like paging: 4 KiB base pages and 2 MiB
// huge pages (512 subpages). Virtual addresses are plain 64-bit offsets into a
// single simulated address space; physical frames are 4 KiB-frame indices
// within a tier.

#ifndef MEMTIS_SIM_SRC_MEM_TYPES_H_
#define MEMTIS_SIM_SRC_MEM_TYPES_H_

#include <cstdint>

namespace memtis {

using Vaddr = uint64_t;    // byte address in the simulated virtual address space
using Vpn = uint64_t;      // 4 KiB virtual page number (Vaddr >> 12)
using FrameId = uint64_t;  // 4 KiB physical frame index within a tier

inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kPageSize = 1ULL << kPageShift;             // 4 KiB
inline constexpr uint64_t kHugeOrder = 9;                             // 2^9 subpages
inline constexpr uint64_t kSubpagesPerHuge = 1ULL << kHugeOrder;      // 512
inline constexpr uint64_t kHugePageSize = kPageSize * kSubpagesPerHuge;  // 2 MiB

enum class TierId : uint8_t {
  kFast = 0,      // e.g. local DRAM
  kCapacity = 1,  // e.g. NVM or CXL-attached memory
};
inline constexpr int kNumTiers = 2;

inline constexpr TierId OtherTier(TierId t) {
  return t == TierId::kFast ? TierId::kCapacity : TierId::kFast;
}

enum class PageKind : uint8_t {
  kBase = 0,
  kHuge = 1,
};

// Tenant owning a region/page in the co-location plane (src/tenant/). Tenant 0
// is the default owner: a run that never registers tenants is, by
// construction, a single-tenant run of tenant 0 with an unlimited quota, so
// every legacy code path stays byte-identical.
using TenantId = uint16_t;
inline constexpr TenantId kDefaultTenant = 0;

// Index of a PageInfo inside MemorySystem. Indices are recycled, so any
// reference held across page lifetime must be a PageRef (index + generation).
using PageIndex = uint32_t;
inline constexpr PageIndex kInvalidPage = static_cast<PageIndex>(-1);

struct PageRef {
  PageIndex index = kInvalidPage;
  uint32_t generation = 0;

  bool operator==(const PageRef&) const = default;

  template <class V>
  void VisitFields(V& v) {
    v.Field("index", index);
    v.Field("generation", generation);
  }
};

// One memory access issued by a workload. In keeping with the paper's PEBS
// configuration (retired LLC load misses + retired stores), the simulated
// trace represents post-cache traffic: every event reaches memory.
struct Access {
  Vaddr addr = 0;
  bool is_write = false;
};

inline constexpr Vpn VpnOf(Vaddr addr) { return addr >> kPageShift; }
inline constexpr Vpn HugeBaseVpn(Vpn vpn) { return vpn & ~(kSubpagesPerHuge - 1); }
inline constexpr uint64_t SubpageIndexOf(Vpn vpn) { return vpn & (kSubpagesPerHuge - 1); }

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_TYPES_H_
