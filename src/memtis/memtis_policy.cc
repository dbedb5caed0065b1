#include "src/memtis/memtis_policy.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/common/check.h"
#include "src/policies/policy_util.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

void MemtisPolicy::Init(PolicyContext& ctx) {
  sampler_.AttachFaults(ctx.faults);
  // Initial thresholds per paper §4.2.1: T_hot = T_warm = 1, T_cold = 0.
  thresholds_ = AccessHistogram::Thresholds{.hot = 1, .warm = 1, .cold = 0};
  base_hot_bin_ = 1;
}

void MemtisPolicy::AccountPageAdded(PolicyContext& ctx, PageInfo& page) {
  (void)ctx;
  const int bin = AccessHistogram::BinOf(page.hotness());
  page.histogram_bin = static_cast<uint8_t>(bin);
  hist_.Add(bin, page.size_pages());
  TenantHist(page).Add(bin, page.size_pages());
  if (page.kind() == PageKind::kHuge) {
    if (page.huge->nonzero_subpages == 0) {
      // All subpage counters are zero: 512 units land in BinOf(0) at once.
      base_hist_.Add(AccessHistogram::BinOf(0), kSubpagesPerHuge);
    } else {
      for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
        base_hist_.Add(AccessHistogram::BinOf(UnitHotness(page.huge->subpage_count[j])), 1);
      }
    }
  } else {
    base_hist_.Add(bin, 1);
  }
}

void MemtisPolicy::AccountPageRemoved(PolicyContext& ctx, PageInfo& page) {
  (void)ctx;
  hist_.Remove(page.histogram_bin, page.size_pages());
  TenantHist(page).Remove(page.histogram_bin, page.size_pages());
  if (page.kind() == PageKind::kHuge) {
    if (page.huge->nonzero_subpages == 0) {
      base_hist_.Remove(AccessHistogram::BinOf(0), kSubpagesPerHuge);
    } else {
      for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
        base_hist_.Remove(
            AccessHistogram::BinOf(UnitHotness(page.huge->subpage_count[j])), 1);
      }
    }
  } else {
    base_hist_.Remove(page.histogram_bin, 1);
  }
}

void MemtisPolicy::OnPageAllocated(PolicyContext& ctx, PageIndex index,
                                   PageInfo& page) {
  (void)index;
  // Initial hotness = current hot threshold, so fresh pages are not immediate
  // demotion victims (paper §4.2.1).
  const uint64_t hot_floor = AccessHistogram::BinFloor(thresholds_.hot);
  if (page.kind() == PageKind::kHuge) {
    page.access_count() = std::max<uint64_t>(1, hot_floor);
  } else {
    page.access_count() = std::max<uint64_t>(1, hot_floor / kSubpagesPerHuge);
  }
  page.cooling_epoch = cool_epoch_;
  AccountPageAdded(ctx, page);
}

void MemtisPolicy::OnPageFreed(PolicyContext& ctx, PageIndex index, PageInfo& page) {
  (void)index;
  AccountPageRemoved(ctx, page);
}

void MemtisPolicy::SyncCooling(PageInfo& page) const {
  const uint32_t behind = cool_epoch_ - page.cooling_epoch;
  if (behind == 0) {
    return;
  }
  // Only reachable for pages created by structural changes between cooling
  // scans; the eager scan keeps everyone else in sync.
  const uint32_t shift = std::min(behind, 63u);
  page.access_count() >>= shift;
  if (page.kind() == PageKind::kHuge && page.huge->nonzero_subpages != 0) {
    for (auto& c : page.huge->subpage_count) {
      if (c != 0) {
        c >>= shift;
        if (c == 0) {
          --page.huge->nonzero_subpages;
        }
      }
    }
  }
  page.cooling_epoch = cool_epoch_;
}

void MemtisPolicy::OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                            const Access& access) {
  const SampleType type =
      access.is_write ? SampleType::kStore : SampleType::kLlcLoadMiss;
  if (!sampler_.OnEvent(type, ctx.now_ns)) {
    return;
  }
  ctx.ChargeDaemon(DaemonKind::kSampler, sampler_.AccountSample(ctx.now_ns));
  ++samples_processed_;
  SIM_DCHECK(page.cooling_epoch == cool_epoch_);

  // Update page (and subpage) hotness and both histograms.
  ++page.access_count();
  uint64_t unit_old;
  uint64_t unit_new;
  if (page.kind() == PageKind::kHuge) {
    uint32_t& c = page.huge->subpage_count[SubpageIndexOf(VpnOf(access.addr))];
    unit_old = UnitHotness(c);
    if (c == 0) {
      ++page.huge->nonzero_subpages;
    }
    ++c;
    unit_new = UnitHotness(c);
  } else {
    unit_new = page.hotness();
    unit_old = unit_new - kSubpagesPerHuge;
  }
  const int unit_bin_old = AccessHistogram::BinOf(unit_old);
  const int unit_bin_new = AccessHistogram::BinOf(unit_new);
  if (unit_bin_old != unit_bin_new) {
    base_hist_.Move(unit_bin_old, unit_bin_new, 1);
  }
  const int page_bin = AccessHistogram::BinOf(page.hotness());
  if (page_bin != page.histogram_bin) {
    hist_.Move(page.histogram_bin, page_bin, page.size_pages());
    TenantHist(page).Move(page.histogram_bin, page_bin, page.size_pages());
    page.histogram_bin = static_cast<uint8_t>(page_bin);
  }

  // eHR / rHR windows (paper §4.3.1). The eHR membership test uses the
  // unit's hotness *before* this sample: counting the sample's own increment
  // would make any subpage sampled twice per window look hot and inflate eHR
  // on uniform workloads.
  ++win_samples_;
  if (page.tier() == TierId::kFast) {
    ++win_fast_hits_;
  }
  if (unit_bin_old >= base_hot_bin_) {
    ++win_base_hot_hits_;
  }

  // Hot page in the capacity tier: queue for promotion (paper §4.2.3).
  if (page.tier() == TierId::kCapacity && page_bin >= thresholds_.hot &&
      !page.in_promotion_list) {
    page.in_promotion_list = true;
    promotion_list_.Push(page.ref(index));
  }

  if (config_.hybrid_scan) {
    hybrid_scanner_.MarkAccessed(index);
  }

  // Sample-count-driven events.
  ++samples_since_adapt_;
  ++samples_since_cool_;
  ++samples_since_estimate_;
  if (samples_since_adapt_ >= config_.adapt_interval_samples) {
    samples_since_adapt_ = 0;
    AdaptThresholds(ctx);
  }
  if (samples_since_cool_ >= config_.cooling_interval_samples) {
    samples_since_cool_ = 0;
    CoolingEvent(ctx);
  }
  const uint64_t estimate_interval = std::max(
      config_.min_estimate_interval_samples, ctx.mem.mapped_4k_pages() / 4);
  if (samples_since_estimate_ >= estimate_interval) {
    samples_since_estimate_ = 0;
    EstimateSplitBenefit(ctx);
  }
}

void MemtisPolicy::AdaptThresholds(PolicyContext& ctx) {
  const uint64_t fast_units = ctx.mem.tier(TierId::kFast).total_frames();
  thresholds_ = hist_.ComputeThresholds(fast_units, config_.alpha);
  base_hot_bin_ = base_hist_.ComputeThresholds(fast_units, config_.alpha).hot;
  ++stats_.threshold_adaptations;
}

void MemtisPolicy::CoolingEvent(PolicyContext& ctx) {
  ++stats_.coolings;
  ++cool_epoch_;
  hist_.Cool();
  base_hist_.Cool();
  for (AccessHistogram& th : tenant_hists_) {
    th.Cool();  // all tenants cool together (one global cooling clock)
  }
  for (auto& bucket : skew_buckets_) {
    bucket.clear();
  }

  const uint64_t base_hot_floor = AccessHistogram::BinFloor(base_hot_bin_);
  uint64_t hp_sample_sum = 0;
  uint64_t hp_count = 0;
  uint64_t scanned = 0;
  std::unordered_map<Vpn, uint32_t> hot_base_runs;

  // The scan touches kind/tier/access_count for every live page: read them
  // straight out of the SoA arrays (hoisted once) instead of through the
  // per-page PageInfo proxy — this is the perf-tracked cooling_scan path.
  PageHotArrays& hot = ctx.mem.hot_arrays();
  ctx.mem.ForEachLivePage([&](PageIndex index, PageInfo& page) {
    ++scanned;
    // Halve the page counter; fix the histogram where the plain left shift was
    // wrong (top bin, bin-0 saturation — paper §4.2.2's correction step).
    const int prev_bin = page.histogram_bin;
    const int shifted_bin = prev_bin > 0 ? prev_bin - 1 : 0;
    const uint64_t count = (hot.access_count[index] >>= 1);
    const PageKind kind = hot.kind[index];
    const bool is_huge = kind == PageKind::kHuge;
    const uint64_t hotness = is_huge ? count : count * kSubpagesPerHuge;
    const uint64_t size_pages = is_huge ? kSubpagesPerHuge : 1;
    page.cooling_epoch = cool_epoch_;
    const int actual_bin = AccessHistogram::BinOf(hotness);
    if (actual_bin != shifted_bin) {
      hist_.Move(shifted_bin, actual_bin, size_pages);
      TenantHist(page).Move(shifted_bin, actual_bin, size_pages);
    }
    page.histogram_bin = static_cast<uint8_t>(actual_bin);

    if (is_huge) {
      // Cool subpages, correct the base-page histogram, and recompute the
      // skewness factor S_i = sum(H_ij^2) / U_i^2 (paper Eq. 3). When every
      // subpage counter is zero the whole inner loop is a no-op (a shift of 0
      // is 0, BinOf(0) equals the shifted bin, and h > 0 never holds), so the
      // nonzero_subpages summary lets all-cold huge pages skip the 512
      // iterations without changing any state.
      uint32_t hot_subs = 0;
      double h2_sum = 0.0;
      if (page.huge->nonzero_subpages != 0) {
        for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
          uint32_t& c = page.huge->subpage_count[j];
          const int sp_prev = AccessHistogram::BinOf(UnitHotness(c));
          const int sp_shifted = sp_prev > 0 ? sp_prev - 1 : 0;
          const bool was_nonzero = c != 0;
          c >>= 1;
          if (was_nonzero && c == 0) {
            --page.huge->nonzero_subpages;
          }
          const uint64_t h = UnitHotness(c);
          const int sp_actual = AccessHistogram::BinOf(h);
          if (sp_actual != sp_shifted) {
            base_hist_.Move(sp_shifted, sp_actual, 1);
          }
          if (h >= base_hot_floor && h > 0) {
            ++hot_subs;
            h2_sum += static_cast<double>(h) * static_cast<double>(h);
          }
        }
      }
      if (count > 0) {
        hp_sample_sum += count;
        ++hp_count;
      }
      // THP-Shrinker baseline: queue mostly-zero huge pages for splitting on
      // bloat alone (paper §7's contrast to skew-based splitting).
      if (config_.thp_shrinker && !page.split_queued &&
          page.huge->written.count() <= config_.shrinker_max_written) {
        page.split_queued = true;
        split_queue_.Push(page.ref(index));
      }
      if (hot_subs > 0 && hot_subs < kSubpagesPerHuge) {
        const double skew =
            h2_sum / (static_cast<double>(hot_subs) * static_cast<double>(hot_subs));
        int bucket = skew <= 1.0 ? 0 : static_cast<int>(std::log2(skew));
        bucket = std::clamp(bucket, 0, kSkewBuckets - 1);
        skew_buckets_[bucket].push_back(page.ref(index));
      }
    } else {
      if (actual_bin != shifted_bin) {
        base_hist_.Move(shifted_bin, actual_bin, 1);
      }
      if (config_.enable_collapse && actual_bin >= thresholds_.hot) {
        ++hot_base_runs[HugeBaseVpn(page.base_vpn)];
      }
    }

    // Pages that cooled below the hot threshold while in the fast tier become
    // demotion candidates (paper §4.2.3).
    if (hot.tier[index] == TierId::kFast && page.histogram_bin < thresholds_.hot &&
        !page.in_demotion_list) {
      page.in_demotion_list = true;
      demotion_list_.Push(page.ref(index));
    }
  });

  if (hp_count > 0) {
    avg_samples_per_hp_ = static_cast<double>(hp_sample_sum) /
                          static_cast<double>(hp_count);
  }
  ctx.ChargeDaemon(DaemonKind::kMigrator, scanned * config_.cool_scan_cost_per_page_ns);

  // Thresholds are refreshed against the shifted histogram (paper §4.2.2).
  AdaptThresholds(ctx);

  if (config_.enable_collapse) {
    std::vector<Vpn> candidates;
    for (const auto& [vpn, count] : hot_base_runs) {
      if (count == kSubpagesPerHuge) {
        candidates.push_back(vpn);
      }
    }
    TryCollapse(ctx, candidates);
  }
}

void MemtisPolicy::EstimateSplitBenefit(PolicyContext& ctx) {
  if (win_samples_ == 0) {
    return;
  }
  ++stats_.benefit_estimations;
  const double rhr = static_cast<double>(win_fast_hits_) /
                     static_cast<double>(win_samples_);
  const double ehr = static_cast<double>(win_base_hot_hits_) /
                     static_cast<double>(win_samples_);
  stats_.last_rhr = rhr;
  stats_.last_ehr = ehr;
  rhr_stat_.Add(rhr);
  ehr_stat_.Add(ehr);

  // Split only on long-term, stable trends (paper §4.3.1): at least one
  // cooling must have happened and the benefit gap must persist across two
  // consecutive estimation windows.
  if (ehr - rhr >= config_.split_benefit_gate && cool_epoch_ >= 1) {
    ++consecutive_gap_windows_;
  } else {
    consecutive_gap_windows_ = 0;
  }
  if (config_.enable_split && consecutive_gap_windows_ >= 2) {
    // Eq. 2: Ns = min((eHR - rHR) * (dL / L_fast) * (nr_samples * beta /
    // avg_samples_hp), nr_samples / avg_samples_hp).
    const double l_fast =
        static_cast<double>(ctx.mem.tier(TierId::kFast).latency().load_ns);
    const double l_cap =
        static_cast<double>(ctx.mem.tier(TierId::kCapacity).latency().load_ns);
    const double delta_l = l_cap - l_fast;
    const double distinct_hp =
        static_cast<double>(win_samples_) / std::max(1.0, avg_samples_per_hp_);
    const double ns = std::min(
        (ehr - rhr) * (delta_l / l_fast) * distinct_hp * config_.beta, distinct_hp);
    if (ns >= 1.0) {
      ++stats_.split_rounds_triggered;
      SelectSplitCandidates(ctx, static_cast<uint64_t>(ns));
    }
  }

  win_samples_ = 0;
  win_fast_hits_ = 0;
  win_base_hot_hits_ = 0;
}

void MemtisPolicy::SelectSplitCandidates(PolicyContext& ctx, uint64_t how_many) {
  // Top-Ns most skewed huge pages from the buckets built at the last cooling
  // scan (paper §4.3.2).
  uint64_t chosen = 0;
  for (int b = kSkewBuckets - 1; b >= 0 && chosen < how_many; --b) {
    auto& bucket = skew_buckets_[b];
    while (!bucket.empty() && chosen < how_many) {
      const PageRef ref = bucket.back();
      bucket.pop_back();
      PageInfo* page = ctx.mem.Deref(ref);
      if (page == nullptr || page->kind() != PageKind::kHuge || page->split_queued) {
        continue;
      }
      page->split_queued = true;
      split_queue_.Push(ref);
      ++chosen;
    }
  }
}

void MemtisPolicy::ProcessSplitQueue(PolicyContext& ctx) {
  uint64_t done = 0;
  while (!split_queue_.empty() && done < config_.max_splits_per_wakeup) {
    const PageRef ref = split_queue_.Pop();
    PageInfo* page = ctx.mem.Deref(ref);
    if (page == nullptr || page->kind() != PageKind::kHuge) {
      continue;
    }
    page->split_queued = false;

    // Snapshot subpage hotness before the huge PageInfo dies.
    const std::array<uint32_t, kSubpagesPerHuge> counts = page->huge->subpage_count;
    const Vpn base_vpn = page->base_vpn;
    const int hot_bin = base_hot_bin_;

    AccountPageRemoved(ctx, *page);
    const PageIndex index = ctx.mem.IndexOf(*page);
    const uint64_t created = ctx.mem.SplitHugePage(index, [&](uint32_t j) {
      // Hot subpages go to the fast tier, cold ones to the capacity tier
      // (paper §4.3.3); AllocFrame falls back if the preferred tier is full.
      return AccessHistogram::BinOf(UnitHotness(counts[j])) >= hot_bin
                 ? TierId::kFast
                 : TierId::kCapacity;
    });

    // Register the surviving subpages as base pages.
    uint64_t to_fast = 0;
    for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
      const PageIndex child = ctx.mem.Lookup(base_vpn + j);
      if (child == kInvalidPage) {
        continue;  // all-zero subpage was freed
      }
      PageInfo& cp = ctx.mem.page(child);
      cp.cooling_epoch = cool_epoch_;
      AccountPageAdded(ctx, cp);
      if (cp.tier() == TierId::kFast) {
        ++to_fast;
      }
    }
    ctx.ChargeDaemon(DaemonKind::kMigrator,
                     ctx.costs.split_ns + created * ctx.costs.migrate_base_ns / 4);
    ctx.ChargeApp(ctx.costs.shootdown_app_ns);
    ++stats_.splits_performed;
    stats_.split_subpages_to_fast += to_fast;
    ++done;
  }
}

void MemtisPolicy::TryCollapse(PolicyContext& ctx, const std::vector<Vpn>& candidates) {
  for (const Vpn vpn : candidates) {
    // All 512 base pages must be live, hot, and in the same tier.
    const PageIndex first = ctx.mem.Lookup(vpn);
    if (first == kInvalidPage) {
      continue;
    }
    const TierId tier = ctx.mem.page(first).tier();
    bool eligible = true;
    for (uint64_t j = 0; j < kSubpagesPerHuge && eligible; ++j) {
      const PageIndex index = ctx.mem.Lookup(vpn + j);
      eligible = index != kInvalidPage &&
                 ctx.mem.page(index).kind() == PageKind::kBase &&
                 ctx.mem.page(index).tier() == tier &&
                 ctx.mem.page(index).histogram_bin >= thresholds_.hot;
    }
    if (!eligible) {
      continue;
    }
    for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
      AccountPageRemoved(ctx, ctx.mem.page(ctx.mem.Lookup(vpn + j)));
    }
    if (!ctx.mem.CollapseToHuge(vpn, tier)) {
      // No huge frame: re-register the base pages and move on.
      for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
        AccountPageAdded(ctx, ctx.mem.page(ctx.mem.Lookup(vpn + j)));
      }
      continue;
    }
    PageInfo& hp = ctx.mem.page(ctx.mem.Lookup(vpn));
    hp.cooling_epoch = cool_epoch_;
    AccountPageAdded(ctx, hp);
    ctx.ChargeDaemon(DaemonKind::kMigrator, ctx.costs.collapse_ns);
    ctx.ChargeApp(ctx.costs.shootdown_app_ns);
    ++stats_.collapses_performed;
  }
}

void MemtisPolicy::Tick(PolicyContext& ctx) {
  if (config_.hybrid_scan && ctx.now_ns >= next_hybrid_scan_ns_) {
    next_hybrid_scan_ns_ = ctx.now_ns + config_.hybrid_scan_period_ns;
    HybridScan(ctx);
  }
  if (ctx.now_ns < next_migrate_ns_) {
    return;
  }
  next_migrate_ns_ = ctx.now_ns + config_.migrate_period_ns;
  RunMigration(ctx);
}

void MemtisPolicy::HybridScan(PolicyContext& ctx) {
  // Extension per paper §8: a periodic reference-bit scan supplements PEBS
  // where sampling is blind — pages with no samples at all. Never-referenced
  // fast-tier pages are certainly cold (queue for demotion); referenced but
  // never-sampled pages get a one-count hotness floor so they rank above the
  // truly idle.
  const uint64_t cost = hybrid_scanner_.Scan(
      ctx.mem, [&](PageIndex index, PageInfo& page, bool referenced) {
        if (page.access_count() != 0) {
          return;  // the sampler already sees this page
        }
        if (referenced) {
          ++page.access_count();
          const int old_bin = page.histogram_bin;
          const int bin = AccessHistogram::BinOf(page.hotness());
          if (bin != old_bin) {
            hist_.Move(old_bin, bin, page.size_pages());
            TenantHist(page).Move(old_bin, bin, page.size_pages());
            if (page.kind() == PageKind::kBase) {
              base_hist_.Move(old_bin, bin, 1);
            }
            page.histogram_bin = static_cast<uint8_t>(bin);
          }
        } else if (page.tier() == TierId::kFast && !page.in_demotion_list) {
          page.in_demotion_list = true;
          demotion_list_.Push(page.ref(index));
        }
      });
  ctx.ChargeDaemon(DaemonKind::kScanner, cost);
}

void MemtisPolicy::RunMigration(PolicyContext& ctx) {
  // --- Promotion (capacity-tier kmigrated) ----------------------------------
  size_t budget = promotion_list_.size();
  while (budget-- > 0 && !promotion_list_.empty()) {
    const PageRef ref = promotion_list_.Pop();
    PageInfo* page = ctx.mem.Deref(ref);
    if (page == nullptr) {
      continue;
    }
    page->in_promotion_list = false;
    if (page->tier() != TierId::kCapacity || page->histogram_bin < thresholds_.hot) {
      continue;  // migrated or cooled off meanwhile
    }
    const uint64_t need = page->size_pages();
    if (FastFreeFrames(ctx) < need) {
      DemoteForSpace(ctx, need);
    }
    if (FastFreeFrames(ctx) >= need) {
      MigrateBackground(ctx, ctx.mem.IndexOf(*page), TierId::kFast);
    } else if (config_.exchange_when_full &&
               TryExchangePromotion(ctx, ctx.mem.IndexOf(*page))) {
      // Promoted by direct exchange with a cold fast page: no free frame
      // needed, so the round keeps draining instead of stalling.
    } else {
      // Fast tier is genuinely full of hot/warm pages; try again later.
      page->in_promotion_list = true;
      promotion_list_.Push(ref);
      break;
    }
  }

  // --- Free-space maintenance (fast-tier kmigrated) --------------------------
  const uint64_t target_free = static_cast<uint64_t>(
      static_cast<double>(FastTotalFrames(ctx)) * config_.free_space_target);
  if (FastFreeFrames(ctx) < target_free) {
    DemoteForSpace(ctx, target_free);
  }

  // --- Page-size conversion ---------------------------------------------------
  if (config_.enable_split || config_.thp_shrinker) {
    ProcessSplitQueue(ctx);
  }
}

bool MemtisPolicy::TryExchangePromotion(PolicyContext& ctx, PageIndex hot) {
  const PageInfo& page = ctx.mem.page(hot);
  const PageIndex victim = FindExchangeVictim(
      ctx, hot, page.kind(), &exchange_cursor_,
      [&](const PageInfo& cand) { return IsColdBin(cand.histogram_bin); });
  if (victim == kInvalidPage) {
    return false;
  }
  // The victim may still sit in the demotion list; once it lands on the
  // capacity tier the list drain drops it (tier check) like any page a
  // migration moved out from under the list.
  return ExchangeBackground(ctx, hot, victim);
}

void MemtisPolicy::DemoteForSpace(PolicyContext& ctx, uint64_t target_free_frames) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    // Drain the demotion list, demoting cold pages first and warm pages only
    // if cold demotions were not enough (paper §4.2.3).
    std::vector<PageRef> warm;
    size_t budget = demotion_list_.size();
    while (budget-- > 0 && !demotion_list_.empty() &&
           FastFreeFrames(ctx) < target_free_frames) {
      const PageRef ref = demotion_list_.Pop();
      PageInfo* page = ctx.mem.Deref(ref);
      if (page == nullptr) {
        continue;
      }
      if (page->tier() != TierId::kFast || page->histogram_bin >= thresholds_.hot) {
        page->in_demotion_list = false;  // promoted or re-heated: drop
        continue;
      }
      if (!IsColdBin(page->histogram_bin)) {
        warm.push_back(ref);  // keep warm pages as a last resort
        continue;
      }
      if (!MigrateBackground(ctx, ctx.mem.IndexOf(*page), TierId::kCapacity)) {
        demotion_list_.Push(ref);  // out of migration bandwidth: retry later
        break;
      }
      page->in_demotion_list = false;
    }
    for (const PageRef ref : warm) {
      if (FastFreeFrames(ctx) >= target_free_frames) {
        demotion_list_.Push(ref);  // still a candidate for next time
        continue;
      }
      PageInfo* page = ctx.mem.Deref(ref);
      if (page == nullptr) {
        continue;
      }
      if (page->tier() != TierId::kFast || page->histogram_bin >= thresholds_.hot) {
        page->in_demotion_list = false;
        continue;
      }
      if (!MigrateBackground(ctx, ctx.mem.IndexOf(*page), TierId::kCapacity)) {
        demotion_list_.Push(ref);
        continue;
      }
      page->in_demotion_list = false;
    }
    if (FastFreeFrames(ctx) >= target_free_frames || attempt == 1) {
      return;
    }
    RefillDemotionList(ctx);
  }
}

void MemtisPolicy::RefillDemotionList(PolicyContext& ctx) {
  const PageIndex slots = ctx.mem.page_slots();
  PageIndex visited = 0;
  uint64_t found = 0;
  while (visited < slots && found < 4096) {
    if (demotion_refill_cursor_ >= slots) {
      demotion_refill_cursor_ = 0;
    }
    PageInfo* page = ctx.mem.LivePageAt(demotion_refill_cursor_);
    const PageIndex index = demotion_refill_cursor_;
    ++demotion_refill_cursor_;
    ++visited;
    if (page == nullptr || page->tier() != TierId::kFast || page->in_demotion_list ||
        page->histogram_bin >= thresholds_.hot) {
      continue;
    }
    page->in_demotion_list = true;
    demotion_list_.Push(page->ref(index));
    found += page->size_pages();
  }
}

bool MemtisPolicy::ValidateHistograms(MemorySystem& mem, std::string* error) const {
  AccessHistogram expected_hist;
  AccessHistogram expected_base;
  PageIndex bad_bin_page = kInvalidPage;
  mem.ForEachLivePage([&](PageIndex index, PageInfo& page) {
    const int bin = AccessHistogram::BinOf(page.hotness());
    if (bin != page.histogram_bin && bad_bin_page == kInvalidPage) {
      bad_bin_page = index;
    }
    expected_hist.Add(bin, page.size_pages());
    if (page.kind() == PageKind::kHuge) {
      for (uint32_t c : page.huge->subpage_count) {
        expected_base.Add(AccessHistogram::BinOf(UnitHotness(c)), 1);
      }
    } else {
      expected_base.Add(bin, 1);
    }
  });
  for (int b = 0; b < AccessHistogram::kBins; ++b) {
    if (expected_hist.count(b) != hist_.count(b)) {
      if (error != nullptr) {
        *error = "page histogram bin " + std::to_string(b) + ": tracked " +
                 std::to_string(hist_.count(b)) + " units, recomputed " +
                 std::to_string(expected_hist.count(b));
      }
      return false;
    }
    if (expected_base.count(b) != base_hist_.count(b)) {
      if (error != nullptr) {
        *error = "base histogram bin " + std::to_string(b) + ": tracked " +
                 std::to_string(base_hist_.count(b)) + " units, recomputed " +
                 std::to_string(expected_base.count(b));
      }
      return false;
    }
  }
  if (bad_bin_page != kInvalidPage) {
    if (error != nullptr) {
      *error = "page " + std::to_string(bad_bin_page) +
               " caches histogram_bin " +
               std::to_string(mem.page(bad_bin_page).histogram_bin) +
               " but its hotness maps to bin " +
               std::to_string(
                   AccessHistogram::BinOf(mem.page(bad_bin_page).hotness()));
    }
    return false;
  }
  return true;
}

ClassifiedSizes MemtisPolicy::Classify(PolicyContext& ctx) {
  (void)ctx;
  ClassifiedSizes sizes;
  for (int b = 0; b < AccessHistogram::kBins; ++b) {
    const uint64_t bytes = hist_.count(b) * kPageSize;
    if (b >= thresholds_.hot) {
      sizes.hot_bytes += bytes;
    } else if (b < thresholds_.cold) {
      sizes.cold_bytes += bytes;
    } else {
      sizes.warm_bytes += bytes;
    }
  }
  return sizes;
}

namespace {
constexpr uint32_t kSectionMemtis = 0x4d544953u;  // "MTIS"
}  // namespace

void MemtisPolicy::VisitState(StateCodec& c) {
  c.Section(kSectionMemtis);
  c.Record("sampler", sampler_);
  c.Record("hist", hist_);
  c.Record("base_hist", base_hist_);
  c.Array("tenant_hists", tenant_hists_);
  c.Field("hot", thresholds_.hot);
  c.Field("warm", thresholds_.warm);
  c.Field("cold", thresholds_.cold);
  c.Field("base_hot_bin", base_hot_bin_);
  c.Field("cool_epoch", cool_epoch_);
  c.Field("samples_processed", samples_processed_);
  c.Field("samples_since_adapt", samples_since_adapt_);
  c.Field("samples_since_cool", samples_since_cool_);
  c.Field("samples_since_estimate", samples_since_estimate_);
  c.Field("win_samples", win_samples_);
  c.Field("win_fast_hits", win_fast_hits_);
  c.Field("win_base_hot_hits", win_base_hot_hits_);
  c.Field("avg_samples_per_hp", avg_samples_per_hp_);
  c.Field("consecutive_gap_windows", consecutive_gap_windows_);
  c.Record("promotion_list", promotion_list_);
  c.Record("demotion_list", demotion_list_);
  c.Record("split_queue", split_queue_);
  c.Field("demotion_refill_cursor", demotion_refill_cursor_);
  c.Field("exchange_cursor", exchange_cursor_);
  c.Array("skew_buckets", skew_buckets_);
  c.Field("next_migrate_ns", next_migrate_ns_);
  c.Record("hybrid_scanner", hybrid_scanner_);
  c.Field("next_hybrid_scan_ns", next_hybrid_scan_ns_);
  c.Record("ehr_stat", ehr_stat_);
  c.Record("rhr_stat", rhr_stat_);
  c.Record("stats", stats_);
}

}  // namespace memtis
