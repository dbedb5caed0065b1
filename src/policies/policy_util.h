// Shared mechanics for tiering policies: migration cost charging, hint-fault
// arming, and watermark math.

#ifndef MEMTIS_SIM_SRC_POLICIES_POLICY_UTIL_H_
#define MEMTIS_SIM_SRC_POLICIES_POLICY_UTIL_H_

#include <cstdint>

#include "src/sim/policy.h"

namespace memtis {

inline uint64_t CopyCost(const CostParams& costs, const PageInfo& page) {
  return page.kind() == PageKind::kHuge ? costs.migrate_huge_ns : costs.migrate_base_ns;
}

// Migration in the page-fault handler: the faulting thread pays for the copy
// and the shootdown (the paper's critical-path migration, §2.2).
inline bool MigrateCritical(PolicyContext& ctx, PageIndex index, TierId dst) {
  PageInfo& page = ctx.mem.page(index);
  const uint64_t cost = CopyCost(ctx.costs, page) + ctx.costs.shootdown_app_ns;
  if (!ctx.mem.Migrate(index, dst)) {
    return false;
  }
  ctx.ChargeApp(cost);
  return true;
}

// Migration by a background daemon. Draws on the shared migration bandwidth
// budget (fails when exhausted — the daemon retries at a later wakeup); the
// copy burns daemon CPU and each moved 4 KiB costs the app a slice of memory
// bandwidth; app threads also see the TLB shootdown IPI.
inline bool MigrateBackground(PolicyContext& ctx, PageIndex index, TierId dst) {
  PageInfo& page = ctx.mem.page(index);
  const uint64_t pages = page.size_pages();
  if (!ctx.migration_budget.Consume(ctx.now_ns, pages)) {
    return false;
  }
  const uint64_t copy = CopyCost(ctx.costs, page);
  if (!ctx.mem.Migrate(index, dst)) {
    return false;
  }
  ctx.ChargeDaemon(DaemonKind::kMigrator, copy);
  ctx.ChargeApp(ctx.costs.shootdown_app_ns +
                pages * ctx.costs.migrate_app_interference_ns);
  return true;
}

inline uint64_t ExchangeCopyCost(const CostParams& costs, const PageInfo& page) {
  return page.kind() == PageKind::kHuge ? costs.exchange_huge_ns : costs.exchange_base_ns;
}

// Direct page exchange in the page-fault handler: the faulting thread pays
// the combined swap-copy plus both shootdowns (two mappings change). Used
// where a critical-path promotion finds the fast tier full — one exchange
// replaces a migrate+evict pair without reserving a free frame.
inline bool ExchangeCritical(PolicyContext& ctx, PageIndex hot, PageIndex cold) {
  const uint64_t cost = ExchangeCopyCost(ctx.costs, ctx.mem.page(hot)) +
                        2 * ctx.costs.shootdown_app_ns;
  if (!ctx.mem.ExchangePages(hot, cold)) {
    return false;
  }
  ctx.ChargeApp(cost);
  return true;
}

// Direct page exchange by a background daemon. Both pages cross the memory
// bus, so the swap draws bandwidth budget for both sides; the daemon burns
// the combined copy and app threads see two shootdown IPIs plus interference
// for all moved data.
inline bool ExchangeBackground(PolicyContext& ctx, PageIndex hot, PageIndex cold) {
  const uint64_t pages = 2 * ctx.mem.page(hot).size_pages();
  if (!ctx.migration_budget.Consume(ctx.now_ns, pages)) {
    return false;
  }
  const uint64_t copy = ExchangeCopyCost(ctx.costs, ctx.mem.page(hot));
  if (!ctx.mem.ExchangePages(hot, cold)) {
    return false;
  }
  ctx.ChargeDaemon(DaemonKind::kMigrator, copy);
  ctx.ChargeApp(2 * ctx.costs.shootdown_app_ns +
                pages * ctx.costs.migrate_app_interference_ns);
  return true;
}

inline uint64_t FastFreeFrames(const PolicyContext& ctx) {
  return ctx.mem.tier(TierId::kFast).free_frames();
}

inline uint64_t FastTotalFrames(const PolicyContext& ctx) {
  return ctx.mem.tier(TierId::kFast).total_frames();
}

// True when the fast tier's free space is below `fraction` of its size.
inline bool FastBelowWatermark(const PolicyContext& ctx, double fraction) {
  return static_cast<double>(FastFreeFrames(ctx)) <
         static_cast<double>(FastTotalFrames(ctx)) * fraction;
}

// Deterministic cursor scan for an exchange victim: the next live fast-tier
// page of `kind` (never `hot` itself) accepted by `is_cold`. The caller owns
// the cursor so repeated scans resume instead of re-walking from slot 0; the
// scan wraps at most once. Returns kInvalidPage when no victim qualifies.
template <typename ColdFn>  // ColdFn(const PageInfo&) -> bool
PageIndex FindExchangeVictim(PolicyContext& ctx, PageIndex hot, PageKind kind,
                             PageIndex* cursor, ColdFn&& is_cold) {
  const PageIndex slots = ctx.mem.page_slots();
  for (PageIndex visited = 0; visited < slots; ++visited) {
    if (*cursor >= slots) {
      *cursor = 0;
    }
    const PageIndex index = (*cursor)++;
    PageInfo* page = ctx.mem.LivePageAt(index);
    if (page == nullptr || index == hot || page->tier() != TierId::kFast ||
        page->kind() != kind) {
      continue;
    }
    if (is_cold(*page)) {
      return index;
    }
  }
  return kInvalidPage;
}

// Token-bucket limiter for promotion traffic, modelling the kernel's NUMA
// balancing rate limit (default 256 MB/s per node). Fault-path promoters use
// it so a mis-sized hot set cannot melt the critical path.
class MigrationRateLimiter {
 public:
  MigrationRateLimiter(uint64_t pages_per_window, uint64_t window_ns)
      : budget_(pages_per_window), window_ns_(window_ns) {}

  bool Allow(uint64_t now_ns, uint64_t pages) {
    if (now_ns >= window_start_ns_ + window_ns_) {
      window_start_ns_ = now_ns;
      used_ = 0;
    }
    if (used_ + pages > budget_) {
      return false;
    }
    used_ += pages;
    return true;
  }

  void VisitState(StateCodec& c) {
    c.Field("window_start_ns", window_start_ns_);
    c.Field("used", used_);
  }

 private:
  uint64_t budget_;
  uint64_t window_ns_;
  uint64_t window_start_ns_ = 0;
  uint64_t used_ = 0;
};

// Round-robin hint-fault arming over page slots, modelling the kernel's NUMA
// balancing scan (task_numa_work): each scan period a window of pages is
// unmapped (PROT_NONE); the next touch takes a hint fault.
//
// The armed flag lives in a caller-chosen bit of PageInfo::policy_word0.
class HintFaultArm {
 public:
  HintFaultArm(uint64_t armed_bit, uint64_t scan_batch_pages)
      : armed_bit_(armed_bit), scan_batch_(scan_batch_pages) {}

  // Arms up to scan_batch 4 KiB-pages worth of pages (a huge page counts 512).
  void ArmBatch(PolicyContext& ctx) {
    uint64_t armed = 0;
    const PageIndex slots = ctx.mem.page_slots();
    if (slots == 0) {
      return;
    }
    PageIndex visited = 0;
    while (armed < scan_batch_ && visited < slots) {
      if (cursor_ >= slots) {
        cursor_ = 0;
      }
      PageInfo* page = ctx.mem.LivePageAt(cursor_);
      ++cursor_;
      ++visited;
      if (page == nullptr) {
        continue;
      }
      page->policy_word0 |= armed_bit_;
      armed += page->size_pages();
    }
  }

  // Batched replay: an armed run page takes its fault on the first access,
  // on the scalar path. Any other page stays unarmed until the next
  // ArmBatch, which runs only inside Tick, so every access to it is absorbable.
  uint64_t RunAbsorbLimit(const PolicyContext& ctx) const {
    return (ctx.run_page->policy_word0 & armed_bit_) != 0
               ? 0
               : TieringPolicy::kAbsorbAll;
  }

  // Returns true (and disarms) when this access hits an armed page; the
  // caller charges the hint fault and runs its promotion logic.
  bool ConsumeFault(PageInfo& page) const {
    if ((page.policy_word0 & armed_bit_) == 0) {
      return false;
    }
    page.policy_word0 &= ~armed_bit_;
    return true;
  }

  // Armed bits live in page policy words (serialized with the memory system);
  // only the scan cursor is policy-side state.
  void VisitState(StateCodec& c) { c.Field("cursor", cursor_); }

 private:
  uint64_t armed_bit_;
  uint64_t scan_batch_;
  PageIndex cursor_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_POLICY_UTIL_H_
