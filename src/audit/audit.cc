#include "src/audit/audit.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/json_fields.h"
#include "src/memtis/memtis_policy.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

// --- AuditReport --------------------------------------------------------------

void AuditReport::WriteJson(JsonWriter& w) const { EncodeJson(w, *this); }

std::string AuditReport::ToJson(int indent) const {
  std::string out;
  JsonWriter w(&out, indent);
  WriteJson(w);
  return out;
}

// --- AuditCollector -----------------------------------------------------------

void AuditCollector::Fail(std::string_view invariant, std::string detail) {
  if (abort_on_violation_) {
    std::fprintf(stderr,
                 "AUDIT VIOLATION [%.*s] at t=%" PRIu64 " ns tick=%" PRIu64
                 ": %s\n",
                 static_cast<int>(invariant.size()), invariant.data(), t_ns_,
                 tick_, detail.c_str());
    std::abort();
  }
  ++report_->violations_total;
  if (report_->violations.size() < max_recorded_) {
    report_->violations.push_back(AuditViolation{
        std::string(invariant), std::move(detail), t_ns_, tick_});
  }
}

// --- Component checks ---------------------------------------------------------

namespace {

// The checks over page slots, read from one census. The public Check*
// functions take their own; InvariantAuditor shares one per audit point.

void FrameConservation(const MemorySystem& mem, const MemCensus& census,
                       AuditCollector& out) {
  uint64_t recounted_total = 0;
  for (int t = 0; t < kNumTiers; ++t) {
    const TierId id = static_cast<TierId>(t);
    const MemoryTier& tier = mem.tier(id);
    out.BeginCheck();
    if (!census.buddy_error[t].empty()) {
      out.Fail("frame-conservation",
               tier.name() + " tier buddy allocator: " + census.buddy_error[t]);
    }
    if (tier.used_frames() + tier.free_frames() != tier.total_frames()) {
      out.Fail("frame-conservation",
               tier.name() + " tier: used " +
                   std::to_string(tier.used_frames()) + " + free " +
                   std::to_string(tier.free_frames()) + " != capacity " +
                   std::to_string(tier.total_frames()));
    }
    const uint64_t recounted = census.mapped_4k_tier[t];
    recounted_total += recounted;
    if (recounted + mem.pinned_frames(id) != tier.used_frames()) {
      out.Fail("frame-conservation",
               tier.name() + " tier: " +
                   std::to_string(recounted) + " mapped 4k pages + " +
                   std::to_string(mem.pinned_frames(id)) +
                   " pinned frames != " + std::to_string(tier.used_frames()) +
                   " used frames");
    }
  }
  out.BeginCheck();
  if (recounted_total != mem.mapped_4k_pages()) {
    out.Fail("frame-conservation",
             "mapped_4k counter " + std::to_string(mem.mapped_4k_pages()) +
                 " != per-tier recount " + std::to_string(recounted_total));
  }
}

void PageTableMapping(const MemorySystem& mem, const MemCensus& census,
                      AuditCollector& out) {
  out.BeginCheck();
  std::string err;
  if (!mem.CheckConsistency(census, &err)) {
    out.Fail("page-table-mapping", err);
  }
}

void HugePageAccounting(const MemorySystem& mem, const MemCensus& census,
                        AuditCollector& out) {
  out.BeginCheck();
  uint64_t failures = 0;
  for (const MemCensus::HugeFaultPage& fault : census.huge_faults) {
    if (failures >= MemCensus::kMaxHugeFaultPages) {
      break;  // one audit point reports at most a few pages
    }
    const PageInfo& page = mem.page(fault.index);
    const std::string index = std::to_string(fault.index);
    const std::string huge = "huge page " + index;
    const auto report = [&](uint8_t bit, auto detail) {
      if ((fault.faults & bit) != 0) {
        ++failures;
        out.Fail("huge-page-accounting", detail());
      }
    };
    report(MemCensus::kNoMeta, [&] { return huge + " has no subpage metadata"; });
    report(MemCensus::kUnaligned,
           [&] { return huge + " at unaligned vpn " + std::to_string(page.base_vpn); });
    report(MemCensus::kSubpageSum, [&] {
      return huge + ": subpage counters sum " + std::to_string(fault.subpage_sum) +
             " > page counter " + std::to_string(page.access_count());
    });
    report(MemCensus::kNonzeroSummary, [&] {
      return huge + ": nonzero-subpage summary " +
             std::to_string(page.huge->nonzero_subpages) + " != recount " +
             std::to_string(fault.nonzero) + " (the cooling scan-skip relies on this)";
    });
    report(MemCensus::kBaseWithMeta,
           [&] { return "base page " + index + " carries huge metadata"; });
  }
  out.BeginCheck();
  const MigrationStats& ms = mem.migration_stats();
  if (ms.demand_faults > ms.freed_zero_subpages) {
    out.Fail("huge-page-accounting",
             std::to_string(ms.demand_faults) + " demand faults > " +
                 std::to_string(ms.freed_zero_subpages) +
                 " split-freed subpages");
  }
}

void IncrementalCounters(const MemorySystem& mem, const MemCensus& census,
                         AuditCollector& out) {
  out.BeginCheck();
  if (census.live_huge_pages != mem.live_huge_pages()) {
    out.Fail("incremental-counters",
             "live huge-page counter " + std::to_string(mem.live_huge_pages()) +
                 " != recount " + std::to_string(census.live_huge_pages));
  }
  if (census.written_subpages != mem.written_subpages()) {
    out.Fail("incremental-counters",
             "written-subpage counter " + std::to_string(mem.written_subpages()) +
                 " != recount " + std::to_string(census.written_subpages));
  }
  if (mem.bloat_pages() != census.bloat_pages()) {
    out.Fail("incremental-counters",
             "bloat_pages() " + std::to_string(mem.bloat_pages()) +
                 " != recount " + std::to_string(census.bloat_pages()));
  }
  for (int t = 0; t < kNumTiers; ++t) {
    const TierId id = static_cast<TierId>(t);
    if (census.mapped_4k_tier[t] != mem.mapped_4k_in_tier(id)) {
      out.Fail("incremental-counters",
               mem.tier(id).name() + " tier mapped-4k counter " +
                   std::to_string(mem.mapped_4k_in_tier(id)) + " != recount " +
                   std::to_string(census.mapped_4k_tier[t]));
    }
  }
  if (mem.huge_meta_allocated() != mem.huge_meta_pooled() + mem.live_huge_pages()) {
    out.Fail("incremental-counters",
             "huge-meta pool conservation: " +
                 std::to_string(mem.huge_meta_allocated()) + " allocated != " +
                 std::to_string(mem.huge_meta_pooled()) + " pooled + " +
                 std::to_string(mem.live_huge_pages()) + " live huge pages");
  }
}

void TenantConservation(const MemorySystem& mem, const MemCensus& census,
                        AuditCollector& out) {
  out.BeginCheck();
  for (PageIndex index : census.unregistered_owner) {
    out.Fail("tenant-conservation",
             "page " + std::to_string(index) + " owned by unregistered tenant " +
                 std::to_string(mem.page(index).tenant));
  }
  if (!census.unregistered_owner.empty()) {
    return;
  }
  const std::vector<uint64_t>& recount = census.tenant_mapped_4k;
  uint64_t sum_tier[kNumTiers] = {0, 0};
  for (TenantId id = 0; id < mem.tenant_count(); ++id) {
    const TenantFrameStats& t = mem.tenant_stats(id);
    for (int tier = 0; tier < kNumTiers; ++tier) {
      sum_tier[tier] += t.mapped_4k_tier[tier];
      if (recount[id * kNumTiers + tier] != t.mapped_4k_tier[tier]) {
        out.Fail("tenant-conservation",
                 "tenant " + std::to_string(id) + " tier " + std::to_string(tier) +
                     " counter " + std::to_string(t.mapped_4k_tier[tier]) +
                     " != recount " + std::to_string(recount[id * kNumTiers + tier]));
      }
    }
    if (t.fast_pages() > t.effective_fast_limit()) {
      out.Fail("tenant-conservation",
               "tenant " + std::to_string(id) + " fast usage " +
                   std::to_string(t.fast_pages()) + " exceeds limit " +
                   std::to_string(t.effective_fast_limit()) + " (quota " +
                   std::to_string(t.quota_frames) + ", borrow " +
                   std::to_string(t.borrow_frames) + ")");
    }
    if (t.budget.active) {
      if (t.budget.burst + t.budget.credited_pages - t.budget.consumed_pages !=
              t.budget.tokens ||
          t.budget.tokens > t.budget.burst) {
        out.Fail("tenant-conservation",
                 "tenant " + std::to_string(id) + " promotion-budget ledger: burst " +
                     std::to_string(t.budget.burst) + " + credited " +
                     std::to_string(t.budget.credited_pages) + " - consumed " +
                     std::to_string(t.budget.consumed_pages) + " != tokens " +
                     std::to_string(t.budget.tokens));
      }
    }
  }
  for (int tier = 0; tier < kNumTiers; ++tier) {
    if (sum_tier[tier] != mem.mapped_4k_in_tier(static_cast<TierId>(tier))) {
      out.Fail("tenant-conservation",
               "per-tenant mapped 4k in tier " + std::to_string(tier) +
                   " sums to " + std::to_string(sum_tier[tier]) + " != global " +
                   std::to_string(mem.mapped_4k_in_tier(static_cast<TierId>(tier))));
    }
  }
}

}  // namespace

void CheckFrameConservation(const MemorySystem& mem, AuditCollector& out) {
  FrameConservation(mem, mem.TakeCensus(), out);
}

void CheckPageTableMapping(MemorySystem& mem, AuditCollector& out) {
  PageTableMapping(mem, mem.TakeCensus(), out);
}

void CheckHugePageAccounting(MemorySystem& mem, AuditCollector& out) {
  HugePageAccounting(mem, mem.TakeCensus(), out);
}

void CheckIncrementalCounters(const MemorySystem& mem, AuditCollector& out) {
  IncrementalCounters(mem, mem.TakeCensus(), out);
}

void CheckTenantConservation(MemorySystem& mem, AuditCollector& out) {
  TenantConservation(mem, mem.TakeCensus(), out);
}

void CheckTlbCoherence(const Tlb& tlb, const MemorySystem& mem,
                       AuditCollector& out) {
  out.BeginCheck();
  uint64_t entries = 0;
  uint64_t failures = 0;
  tlb.ForEachValidEntry([&](Vpn vpn, PageKind kind) {
    ++entries;
    if (failures >= 4) {
      return;
    }
    const char* kind_name = kind == PageKind::kHuge ? "huge" : "base";
    const PageIndex index = mem.Lookup(vpn);
    if (index == kInvalidPage) {
      ++failures;
      out.Fail("tlb-coherence", std::string("stale ") + kind_name +
                                    " entry for unmapped vpn " +
                                    std::to_string(vpn));
      return;
    }
    const PageInfo& page = mem.page(index);
    if (page.kind() != kind) {
      ++failures;
      out.Fail("tlb-coherence", std::string(kind_name) + " entry for vpn " +
                                    std::to_string(vpn) +
                                    " maps a page of the other kind");
      return;
    }
    if (kind == PageKind::kHuge && page.base_vpn != vpn) {
      ++failures;
      out.Fail("tlb-coherence",
               "huge entry vpn " + std::to_string(vpn) +
                   " resolves to page based at vpn " +
                   std::to_string(page.base_vpn));
    }
  });
  if (entries > tlb.base_capacity() + tlb.huge_capacity()) {
    out.Fail("tlb-coherence",
             std::to_string(entries) + " valid entries exceed capacity " +
                 std::to_string(tlb.base_capacity() + tlb.huge_capacity()));
  }
}

void CheckMigrationLedger(const MigrationBudget& budget, AuditCollector& out) {
  out.BeginCheck();
  // Unsigned arithmetic: a faulty ledger still mismatches (mod 2^64).
  const uint64_t expected =
      budget.burst() + budget.credited_pages() - budget.consumed_pages();
  if (budget.tokens_raw() != expected) {
    out.Fail("migration-budget-ledger",
             "balance " + std::to_string(budget.tokens_raw()) +
                 " != burst " + std::to_string(budget.burst()) + " + credited " +
                 std::to_string(budget.credited_pages()) + " - consumed " +
                 std::to_string(budget.consumed_pages()));
  }
  if (budget.tokens_raw() > budget.burst()) {
    out.Fail("migration-budget-ledger",
             "balance " + std::to_string(budget.tokens_raw()) +
                 " exceeds burst capacity " + std::to_string(budget.burst()));
  }
}

void CheckExchangeAccounting(const MemorySystem& mem, const FaultStats& faults,
                             AuditCollector& out) {
  out.BeginCheck();
  const MigrationStats& m = mem.migration_stats();
  if (m.exchanged_huge > m.exchanges) {
    out.Fail("exchange-accounting",
             std::to_string(m.exchanged_huge) + " huge exchanges exceed " +
                 std::to_string(m.exchanges) + " total exchanges");
  }
  const uint64_t injected = faults.by(FaultSite::kExchangeAbort);
  if (injected != m.aborted_exchanges) {
    out.Fail("exchange-accounting",
             std::to_string(injected) + " injected exchange-aborts != " +
                 std::to_string(m.aborted_exchanges) + " aborted exchanges");
  }
}

void CheckMemtisSampleLedger(const MemtisPolicy& policy, AuditCollector& out) {
  out.BeginCheck();
  const PebsSampler& sampler = policy.sampler();
  const uint64_t produced = sampler.stats().total_samples();
  if (policy.samples_processed() != produced) {
    out.Fail("memtis-sample-ledger",
             "policy processed " + std::to_string(policy.samples_processed()) +
                 " samples but the sampler produced " + std::to_string(produced));
  }
  const uint64_t expected_busy = produced * sampler.config().sample_cost_ns;
  if (sampler.busy_ns() != expected_busy) {
    out.Fail("memtis-sample-ledger",
             "sampler busy time " + std::to_string(sampler.busy_ns()) +
                 " ns != " + std::to_string(produced) + " samples x " +
                 std::to_string(sampler.config().sample_cost_ns) + " ns");
  }
}

void CheckMemtisHistogramMass(const MemtisPolicy& policy,
                              const MemorySystem& mem, AuditCollector& out) {
  out.BeginCheck();
  const uint64_t mapped = mem.mapped_4k_pages();
  if (policy.page_histogram().total() != mapped) {
    out.Fail("memtis-histogram-mass",
             "page histogram mass " +
                 std::to_string(policy.page_histogram().total()) + " != " +
                 std::to_string(mapped) + " mapped 4k pages");
  }
  if (policy.base_histogram().total() != mapped) {
    out.Fail("memtis-histogram-mass",
             "base histogram mass " +
                 std::to_string(policy.base_histogram().total()) + " != " +
                 std::to_string(mapped) + " mapped 4k pages");
  }
}

void CheckMemtisHistogramsFull(const MemtisPolicy& policy, MemorySystem& mem,
                               AuditCollector& out) {
  out.BeginCheck();
  std::string err;
  if (!policy.ValidateHistograms(mem, &err)) {
    out.Fail("memtis-histogram-full", err);
  }
}

void CheckMemtisTenantHistograms(const MemtisPolicy& policy,
                                 const MemorySystem& mem, AuditCollector& out) {
  out.BeginCheck();
  const auto& hists = policy.tenant_histograms();
  uint64_t slice_sum = 0;
  for (size_t id = 0; id < hists.size(); ++id) {
    const uint64_t mass = hists[id].total();
    slice_sum += mass;
    const uint64_t mapped =
        id < mem.tenant_count()
            ? mem.tenant_mapped_4k(static_cast<TenantId>(id), TierId::kFast) +
                  mem.tenant_mapped_4k(static_cast<TenantId>(id), TierId::kCapacity)
            : 0;
    if (mass != mapped) {
      out.Fail("memtis-tenant-histograms",
               "tenant " + std::to_string(id) + " histogram mass " +
                   std::to_string(mass) + " != " + std::to_string(mapped) +
                   " mapped 4k pages");
    }
  }
  if (slice_sum != policy.page_histogram().total()) {
    out.Fail("memtis-tenant-histograms",
             "tenant histogram slices sum to " + std::to_string(slice_sum) +
                 " != global page histogram mass " +
                 std::to_string(policy.page_histogram().total()));
  }
}

// --- InvariantAuditor ---------------------------------------------------------

InvariantAuditor::InvariantAuditor() : InvariantAuditor(Options()) {}

InvariantAuditor::InvariantAuditor(const Options& options)
    : options_(options),
      collector_(&report_, options.abort_on_violation,
                 options.max_recorded_violations) {
  RegisterDefaultChecks();
}

void InvariantAuditor::RegisterCheck(std::string name, bool expensive,
                                     CheckFn fn) {
  checks_.push_back(Check{std::move(name), expensive, std::move(fn)});
}

void InvariantAuditor::RegisterDefaultChecks() {
  // The checks over page slots read this audit point's census.
  const auto census_check = [this](const char* name, auto check) {
    RegisterCheck(name, false, [this, check](Engine& e, AuditCollector& out) {
      check(e.mem(), census_, out);
    });
  };
  // The MEMTIS checks fire only when the engine's policy is a MemtisPolicy.
  const auto memtis_check = [this](const char* name, bool expensive, auto check) {
    RegisterCheck(name, expensive, [check](Engine& e, AuditCollector& out) {
      if (const auto* p = dynamic_cast<MemtisPolicy*>(&e.policy())) {
        check(*p, e.mem(), out);
      }
    });
  };
  census_check("frame-conservation", FrameConservation);
  census_check("page-table-mapping", PageTableMapping);
  census_check("huge-page-accounting", HugePageAccounting);
  census_check("incremental-counters", IncrementalCounters);
  RegisterCheck("tlb-coherence", false, [](Engine& e, AuditCollector& out) {
    CheckTlbCoherence(e.tlb(), e.mem(), out);
  });
  RegisterCheck("tlb-access-ledger", false, [](Engine& e, AuditCollector& out) {
    out.BeginCheck();
    const TlbStats& stats = e.tlb().stats();
    if (stats.hits() + stats.misses() != e.accesses()) {
      out.Fail("tlb-access-ledger",
               std::to_string(stats.hits()) + " hits + " +
                   std::to_string(stats.misses()) + " misses != " +
                   std::to_string(e.accesses()) + " accesses");
    }
  });
  RegisterCheck("migration-budget-ledger", false,
                [](Engine& e, AuditCollector& out) {
                  CheckMigrationLedger(e.ctx().migration_budget, out);
                });
  RegisterCheck("fault-accounting", false, [](Engine& e, AuditCollector& out) {
    // Every injected migrate-abort rolled back exactly one Migrate call, so
    // the memory system's abort counter must track the injector's 1:1.
    out.BeginCheck();
    const uint64_t injected = e.faults().stats().by(FaultSite::kMigrateAbort);
    const uint64_t aborted = e.mem().migration_stats().aborted_migrations;
    if (injected != aborted) {
      out.Fail("fault-accounting",
               std::to_string(injected) + " injected migrate-aborts != " +
                   std::to_string(aborted) + " aborted migrations");
    }
  });
  RegisterCheck("exchange-accounting", false, [](Engine& e, AuditCollector& out) {
    CheckExchangeAccounting(e.mem(), e.faults().stats(), out);
  });
  census_check("tenant-conservation", TenantConservation);
  memtis_check("memtis-sample-ledger", false,
               [](const MemtisPolicy& p, MemorySystem&, AuditCollector& out) {
                 CheckMemtisSampleLedger(p, out);
               });
  memtis_check("memtis-histogram-mass", false, CheckMemtisHistogramMass);
  memtis_check("memtis-tenant-histograms", false, CheckMemtisTenantHistograms);
  memtis_check("memtis-histogram-full", true, CheckMemtisHistogramsFull);
}

void InvariantAuditor::OnTick(Engine& engine) {
  ++ticks_seen_;
  if (!options_.every_tick) {
    return;
  }
  if (options_.tick_stride > 1 && ticks_seen_ % options_.tick_stride != 0) {
    return;
  }
  ++audits_run_;
  const bool expensive = options_.expensive_stride != 0 &&
                         audits_run_ % options_.expensive_stride == 0;
  AuditNow(engine, expensive);
  ++report_.ticks_audited;
}

void InvariantAuditor::OnRunEnd(Engine& engine) {
  AuditNow(engine, /*include_expensive=*/true);
}

void InvariantAuditor::AuditNow(Engine& engine, bool include_expensive) {
  collector_.SetContext(engine.now_ns(), ticks_seen_);
  census_ = engine.mem().TakeCensus();
  for (const Check& check : checks_) {
    if (check.expensive && !include_expensive) {
      continue;
    }
    check.fn(engine, collector_);
  }
}

void InvariantAuditor::VisitState(StateCodec& c) {
  c.Section(0x41554454u);  // "AUDT"
  c.Record("report", report_);
  c.Field("ticks_seen", ticks_seen_);
  c.Field("audits_run", audits_run_);
}

}  // namespace memtis
