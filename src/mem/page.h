// Per-page metadata.
//
// Mirrors what MEMTIS keeps in (re-purposed) struct pages: an access counter
// per OS page, plus per-subpage counters and bitsets for huge pages. Baseline
// policies store their own per-page state in the two policy scratch words,
// matching the paper's observation that each system keeps small per-page
// hotness state (reference bits, history vectors, LRU links).

#ifndef MEMTIS_SIM_SRC_MEM_PAGE_H_
#define MEMTIS_SIM_SRC_MEM_PAGE_H_

#include <array>
#include <bit>
#include <bitset>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/mem/types.h"

namespace memtis {

inline constexpr size_t kSubpageWords = kSubpagesPerHuge / 64;
static_assert(kSubpagesPerHuge % 64 == 0 &&
                  sizeof(std::bitset<kSubpagesPerHuge>) == kSubpageWords * sizeof(uint64_t) &&
                  std::is_trivially_copyable_v<std::bitset<kSubpagesPerHuge>>,
              "bitset<512> must be eight plain words");

// A subpage bitset as its eight words, subpage 64k+b at bit b of word k: the
// layout libstdc++ and libc++ both give std::bitset. Snapshots store these
// words (HugePageMeta::VisitFields); a test pins the layout.
inline std::array<uint64_t, kSubpageWords> SubpageWords(
    const std::bitset<kSubpagesPerHuge>& set) {
  return std::bit_cast<std::array<uint64_t, kSubpageWords>>(set);
}

inline std::bitset<kSubpagesPerHuge> SubpagesFromWords(
    const std::array<uint64_t, kSubpageWords>& words) {
  return std::bit_cast<std::bitset<kSubpagesPerHuge>>(words);
}

// Number of set bits in a subpage bitset. Same value as set.count(), but the
// x86-64 baseline has no POPCNT, so count() makes one libgcc call per word;
// this copies the set's eight words out and counts them with shifts and masks.
inline uint32_t CountSubpages(const std::bitset<kSubpagesPerHuge>& set) {
  uint64_t words[kSubpageWords];
  std::memcpy(words, &set, sizeof(words));
  uint64_t bytes = 0;  // per-byte counts: <= 8 per word, <= 64 over all eight
  for (uint64_t w : words) {
    w -= (w >> 1) & 0x5555555555555555ULL;
    w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
    bytes += (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  }
  // Widen to 16-bit lanes (the total, up to 512, overflows a byte) and sum
  // the four lanes into the top one.
  constexpr uint64_t kEvenBytes = 0x00ff00ff00ff00ffULL;
  const uint64_t lanes = (bytes & kEvenBytes) + ((bytes >> 8) & kEvenBytes);
  return static_cast<uint32_t>((lanes * 0x0001000100010001ULL) >> 48);
}

// Extra metadata carried only by huge pages (the kernel version stores this in
// the compound page's unused struct pages).
struct HugePageMeta {
  // Access count per 4 KiB subpage (C_ij in the paper); cooled together with
  // the page's main counter.
  std::array<uint32_t, kSubpagesPerHuge> subpage_count{};
  // Subpages ever touched / ever written. `written` drives memory-bloat
  // accounting: never-written subpages are freed on split (paper §4.3.3).
  std::bitset<kSubpagesPerHuge> accessed;
  std::bitset<kSubpagesPerHuge> written;
  // Number of nonzero subpage_count entries. Every mutation of subpage_count
  // must keep this in sync (use SetSubpageCount or adjust explicitly): the
  // cooling scan skips the 512-entry inner loop when it is 0, which is only
  // byte-identical while this summary is exact.
  uint32_t nonzero_subpages = 0;

  // Sets one subpage counter while maintaining nonzero_subpages.
  void SetSubpageCount(uint32_t j, uint32_t count) {
    if ((subpage_count[j] != 0) != (count != 0)) {
      nonzero_subpages += count != 0 ? 1 : -1;
    }
    subpage_count[j] = count;
  }

  uint32_t accessed_count() const { return static_cast<uint32_t>(accessed.count()); }

  // Snapshot field list: the bitsets as their words (SubpageWords).
  template <class V>
  void VisitFields(V& v) {
    v.Array("subpage_count", subpage_count);
    v.Mapped("accessed", [this] { return SubpageWords(accessed); },
             [this](const auto& words) { accessed = SubpagesFromWords(words); });
    v.Mapped("written", [this] { return SubpageWords(written); },
             [this](const auto& words) { written = SubpagesFromWords(words); });
    v.Field("nonzero_subpages", nonzero_subpages);
  }
};

// Structure-of-arrays storage for the fields the access hot path touches on
// every event (engine pipeline: kind -> TLB, tier -> latency, counters ->
// policy). Parallel arrays indexed by PageIndex keep them densely packed —
// one byte per page for kind/tier instead of a whole PageInfo cache line —
// while the cold metadata stays in PageInfo. MemorySystem owns one instance,
// resized in lockstep with its page slots; PageInfo carries a back-reference
// so existing call sites read/write the same storage through accessors.
struct PageHotArrays {
  std::vector<PageKind> kind;
  std::vector<TierId> tier;
  std::vector<FrameId> frame;
  // Hotness counter C_i. The hotness factor H_i is derived:
  // huge page -> C_i, base page -> C_i * kSubpagesPerHuge (paper §4.1.2).
  std::vector<uint64_t> access_count;

  void Resize(size_t n) {
    kind.resize(n, PageKind::kBase);
    tier.resize(n, TierId::kCapacity);
    frame.resize(n, 0);
    access_count.resize(n, 0);
  }
  size_t size() const { return kind.size(); }

  // Dead-slot convention: released slots are reset to the defaults below so
  // the audit layer can certify the SoA state of non-live slots.
  void ResetSlot(PageIndex i) {
    kind[i] = PageKind::kBase;
    tier[i] = TierId::kCapacity;
    frame[i] = 0;
    access_count[i] = 0;
  }
};

struct PageInfo {
  Vpn base_vpn = 0;
  bool live = false;
  uint32_t generation = 0;
  // Owning tenant (kDefaultTenant outside the co-location plane). Stamped at
  // MapPage time from the owning region; split/collapse children inherit it.
  TenantId tenant = kDefaultTenant;

  // Global cooling epoch already applied to access_count (lazy cooling).
  uint32_t cooling_epoch = 0;
  // Cached histogram bin (MEMTIS); 0xff = not tracked.
  uint8_t histogram_bin = 0xff;

  // Membership flags for promotion/demotion lists (avoid duplicate entries).
  bool in_promotion_list = false;
  bool in_demotion_list = false;
  bool split_queued = false;

  // Virtual time (ns) at allocation; used for short-lived-data analyses.
  uint64_t alloc_time_ns = 0;

  // Policy-private scratch (recency bits, history vectors, timestamps...).
  uint64_t policy_word0 = 0;
  uint64_t policy_word1 = 0;

  // Present only for huge pages.
  std::unique_ptr<HugePageMeta> huge;

  // Back-reference into the owning MemorySystem's hot arrays (set once at
  // slot creation and stable for the slot's lifetime). The hot fields are
  // read/written through the accessors below; the engine's batched path reads
  // the arrays directly by index.
  PageHotArrays* hot = nullptr;
  PageIndex self = kInvalidPage;

  PageKind& kind() { return hot->kind[self]; }
  PageKind kind() const { return hot->kind[self]; }
  TierId& tier() { return hot->tier[self]; }
  TierId tier() const { return hot->tier[self]; }
  FrameId& frame() { return hot->frame[self]; }
  FrameId frame() const { return hot->frame[self]; }
  uint64_t& access_count() { return hot->access_count[self]; }
  uint64_t access_count() const { return hot->access_count[self]; }

  uint64_t size_pages() const { return kind() == PageKind::kHuge ? kSubpagesPerHuge : 1; }
  uint64_t size_bytes() const { return size_pages() * kPageSize; }

  // Hotness factor H_i per paper §4.1.2.
  uint64_t hotness() const {
    return kind() == PageKind::kHuge ? access_count()
                                     : access_count() * kSubpagesPerHuge;
  }

  PageRef ref(PageIndex index) const { return PageRef{index, generation}; }
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_PAGE_H_
