// Split base/huge TLB model.
//
// Direct-mapped with per-entry vpn tags, which captures what matters for the
// paper's trade-off: huge pages give ~512x reach per entry, and splits cost
// shootdowns. Sizes default to a Xeon-like second-level TLB scaled to the
// simulated footprints.

#ifndef MEMTIS_SIM_SRC_MEM_TLB_H_
#define MEMTIS_SIM_SRC_MEM_TLB_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/mem/types.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

struct TlbConfig {
  uint32_t base_entries = 1536;  // 4 KiB entries (power of two rounded internally)
  uint32_t huge_entries = 128;   // 2 MiB entries
};

struct TlbStats {
  uint64_t base_hits = 0;
  uint64_t base_misses = 0;
  uint64_t huge_hits = 0;
  uint64_t huge_misses = 0;
  uint64_t shootdowns = 0;            // invalidation events (split/migration)
  uint64_t invalidated_entries = 0;

  uint64_t hits() const { return base_hits + huge_hits; }
  uint64_t misses() const { return base_misses + huge_misses; }
  double miss_ratio() const {
    const uint64_t total = hits() + misses();
    return total == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(total);
  }

  // JSON field list (src/common/json_fields.h).
  template <class V>
  void VisitFields(V& v) {
    v.Field("base_hits", base_hits);
    v.Field("base_misses", base_misses);
    v.Field("huge_hits", huge_hits);
    v.Field("huge_misses", huge_misses);
    v.Field("shootdowns", shootdowns);
    v.Field("invalidated_entries", invalidated_entries);
    v.Derived("miss_ratio", [this] { return miss_ratio(); });
  }
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config = {});

  // Looks up the translation for `vpn`, which is mapped with the given page
  // kind. Returns true on hit; on miss the entry is filled (the page walk cost
  // is charged by the engine's cost model).
  bool Access(Vpn vpn, PageKind kind);

  // Batched replay: records `n` guaranteed hits without re-probing. Only valid
  // when the caller has just accessed the same vpn (direct-mapped, so the
  // entry is resident and re-accessing it cannot evict anything) — the stats
  // end up exactly as n scalar Access calls would leave them.
  void CountRepeatHits(PageKind kind, uint64_t n) {
    if (kind == PageKind::kHuge) {
      stats_.huge_hits += n;
    } else {
      stats_.base_hits += n;
    }
  }

  // Removes any entry covering [vpn, vpn + num_pages) and counts one shootdown
  // event. Used on migration, split, collapse, and unmap.
  void Shootdown(Vpn vpn, uint64_t num_pages);

  void Flush();

  const TlbStats& stats() const { return stats_; }

  // Audit introspection: visits every currently valid entry as
  // fn(Vpn, PageKind). Base entries report the exact vpn; huge entries the
  // huge-aligned base vpn.
  template <typename Fn>
  void ForEachValidEntry(Fn&& fn) const {
    // Mostly idle tables are mostly zero tags: one OR skips a group of eight.
    const auto scan = [](const std::vector<Vpn>& tags, auto&& visit) {
      for (size_t i = 0; i < tags.size(); i += 8) {
        const Vpn* t = tags.data() + i;
        const size_t n = std::min<size_t>(8, tags.size() - i);
        if (n == 8 && (t[0] | t[1] | t[2] | t[3] | t[4] | t[5] | t[6] | t[7]) == 0) {
          continue;
        }
        for (size_t j = 0; j < n; ++j) {
          if (t[j] != 0) {
            visit(t[j]);
          }
        }
      }
    };
    scan(base_tags_, [&](Vpn tag) { fn(tag - 1, PageKind::kBase); });
    // Huge tags store the huge-page number; report the base vpn.
    scan(huge_tags_, [&](Vpn tag) { fn((tag - 1) << kHugeOrder, PageKind::kHuge); });
  }

  uint32_t base_capacity() const { return base_mask_ + 1; }
  uint32_t huge_capacity() const { return huge_mask_ + 1; }

  // Checkpointing: tags + stats are the whole mutable state; the masks are
  // configuration (the tag arrays' sizes) and are cross-checked on load.
  void VisitState(StateCodec& c) {
    c.Check("base_mask", base_mask_);
    c.Check("huge_mask", huge_mask_);
    c.Array("base_tags", std::span(base_tags_));
    c.Array("huge_tags", std::span(huge_tags_));
    c.Record("stats", stats_);
  }

 private:
  static uint32_t RoundPow2(uint32_t v);

  std::vector<Vpn> base_tags_;  // tag = vpn + 1, 0 = invalid
  std::vector<Vpn> huge_tags_;  // tag = huge_vpn + 1
  uint32_t base_mask_;
  uint32_t huge_mask_;
  TlbStats stats_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEM_TLB_H_
