#include "src/sim/engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/snapshot/state_codec.h"
#include "src/trace/trace.h"

namespace memtis {

namespace {
uint64_t BytesToFrames(uint64_t bytes) {
  // Round up to a huge-page multiple so the buddy allocator tiles cleanly.
  return (bytes + kHugePageSize - 1) / kHugePageSize * kSubpagesPerHuge;
}
}  // namespace

MachineConfig MakeNvmMachine(uint64_t fast_bytes, uint64_t capacity_bytes) {
  MachineConfig m;
  m.mem.fast_frames = BytesToFrames(fast_bytes);
  m.mem.capacity_frames = BytesToFrames(capacity_bytes);
  m.mem.fast_latency = kDramLatency;
  m.mem.capacity_latency = kNvmLatency;
  return m;
}

MachineConfig MakeCxlMachine(uint64_t fast_bytes, uint64_t capacity_bytes) {
  MachineConfig m = MakeNvmMachine(fast_bytes, capacity_bytes);
  m.mem.capacity_latency = kCxlLatency;
  return m;
}

MachineConfig MakeDramOnlyMachine(uint64_t bytes) {
  MachineConfig m;
  m.mem.fast_frames = BytesToFrames(bytes);
  m.mem.capacity_frames = kSubpagesPerHuge;  // minimal, unused
  m.mem.fast_latency = kDramLatency;
  m.mem.capacity_latency = kDramLatency;
  return m;
}

Engine::Engine(const MachineConfig& machine, TieringPolicy& policy,
               const EngineOptions& options)
    : options_(options),
      costs_(machine.costs),
      mem_(machine.mem),
      tlb_(machine.tlb),
      policy_(policy),
      rng_(options.seed),
      migration_budget_(machine.costs.migrate_bandwidth_pages_per_ms,
                        machine.costs.migrate_burst_pages),
      fault_injector_(options.faults, options.seed),
      ctx_{mem_, tlb_, costs_, metrics_.cpu, rng_, migration_budget_,
           &fault_injector_},
      next_tick_ns_(options.tick_quantum_ns),
      next_snapshot_ns_(options.snapshot_interval_ns != 0
                            ? options.snapshot_interval_ns
                            : UINT64_MAX),
      trace_(options.trace) {
  UpdateNextEvent();
  metrics_.cores = machine.cores;
  metrics_.cpu_contention = options.cpu_contention;
  mem_.AttachTlb(&tlb_);
  mem_.AttachClock(&now_ns_);
  mem_.AttachFaults(&fault_injector_);
  migration_budget_.AttachFaults(&fault_injector_);
  if (fault_injector_.enabled() &&
      options_.faults.site(FaultSite::kTierShrink).active()) {
    const double frames = static_cast<double>(machine.mem.fast_frames);
    fault_shrink_step_frames_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(frames * options_.faults.tier_shrink_step));
    fault_shrink_cap_frames_ =
        static_cast<uint64_t>(frames * options_.faults.tier_shrink_cap);
  }
}

Metrics Engine::Run(Workload& workload) {
  App app(*this);
  if (!started_) {
    started_ = true;
    ctx_.now_ns = now_ns_;
    policy_.Init(ctx_);
    DrainPendingAppTime();
    workload.Setup(app, rng_);
    DrainPendingAppTime();
  }

  while (metrics_.accesses < options_.max_accesses) {
    if (!workload.Step(app, rng_)) {
      break;
    }
    if (now_ns_ >= next_checkpoint_ns_) [[unlikely]] {
      // Step boundaries are the checkpoint safe points: no migration, fault
      // handler, or policy hook is mid-flight. Skip ahead like the tick
      // schedule so a stalled app writes one snapshot, not a burst.
      next_checkpoint_ns_ = now_ns_ - now_ns_ % checkpoint_interval_ns_ +
                            checkpoint_interval_ns_;
      checkpoint_fn_();
    }
  }

  metrics_.app_ns = now_ns_;
  metrics_.tlb = tlb_.stats();
  metrics_.migration = mem_.migration_stats();
  metrics_.faults = fault_injector_.stats();
  metrics_.final_rss_pages = mem_.rss_pages();
  metrics_.peak_rss_pages = std::max(metrics_.peak_rss_pages, mem_.rss_pages());
  metrics_.final_fast_used_pages = mem_.fast_tier_pages();
  metrics_.final_huge_ratio = mem_.huge_page_ratio();
  if (options_.audit != nullptr) {
    options_.audit->OnRunEnd(*this);
  }
  return metrics_;
}

void Engine::DrainPendingAppTime() {
  if (ctx_.pending_app_ns != 0) {
    now_ns_ += ctx_.pending_app_ns;
    metrics_.critical_path_ns += ctx_.pending_app_ns;
    ctx_.pending_app_ns = 0;
  }
}

void Engine::DoAccess(Vaddr addr, bool is_write) {
  // The trace check is hoisted out of the per-access pipeline: DoAccessImpl
  // (and the batched path, which bypasses this wrapper entirely) never
  // re-tests it.
  if (trace_ != nullptr) [[unlikely]] {
    trace_->RecordAccess(addr, is_write);
  }
  DoAccessImpl(addr, is_write);
}

void Engine::DoAccessImpl(Vaddr addr, bool is_write) {
  const Vpn vpn = VpnOf(addr);
  PageIndex index = mem_.Lookup(vpn);
  if (index == kInvalidPage) {
    // Demand fault: a split freed this (then all-zero) subpage earlier.
    ctx_.now_ns = now_ns_;
    AllocOptions opts = policy_.PlacementFor(ctx_, kPageSize, /*use_thp=*/false);
    opts.use_thp = false;
    index = mem_.DemandFault(vpn, opts);
    now_ns_ += costs_.minor_fault_ns + costs_.alloc_page_ns;
    policy_.OnPageAllocated(ctx_, index, mem_.page(index));
    DrainPendingAppTime();
  }
  PageInfo& page = mem_.page(index);
  const PageKind kind = mem_.kind_of(index);

  // Address translation.
  uint64_t ns;
  if (tlb_.Access(vpn, kind)) {
    ns = costs_.tlb_hit_ns;
  } else {
    ns = kind == PageKind::kHuge ? costs_.walk_huge_ns : costs_.walk_base_ns;
  }

  // Memory access at the page's tier.
  const TierId tier = mem_.tier_of(index);
  const TierLatency& lat = mem_.tier(tier).latency();
  ns += is_write ? lat.store_ns : lat.load_ns;

  // Ground-truth subpage bookkeeping (the kernel knows written pages exactly;
  // splits free never-written subpages).
  if (kind == PageKind::kHuge) {
    mem_.NoteSubpageAccess(page, SubpageIndexOf(vpn), is_write);
  }

  // Branch-free counter deltas (bool promotes to 0/1).
  ++metrics_.accesses;
  metrics_.stores += is_write;
  metrics_.loads += !is_write;
  const bool fast = tier == TierId::kFast;
  metrics_.fast_accesses += fast;
  metrics_.capacity_accesses += !fast;
  ++window_accesses_;
  window_fast_ += fast;

  now_ns_ += ns;
  ctx_.now_ns = now_ns_;
  policy_.OnAccess(ctx_, index, page, Access{addr, is_write});
  DrainPendingAppTime();

  if (now_ns_ >= next_event_ns_) {
    MaybeTickAndSnapshot();
  }
}

void Engine::DoAccessRun(Vaddr addr, uint64_t count, uint64_t stride,
                         bool is_write) {
  if (trace_ != nullptr) [[unlikely]] {
    // Trace files record the exact per-access event stream: replay scalar.
    for (uint64_t i = 0; i < count; ++i) {
      DoAccess(addr, is_write);
      addr += stride;
    }
    return;
  }
  while (count > 0) {
    const Vpn vpn = VpnOf(addr);
    // Same-page prefix of the remaining run (stride 0 repeats one address).
    uint64_t k = count;
    if (stride != 0) {
      const uint64_t bytes_left = ((vpn + 1) << kPageShift) - addr;
      k = std::min(count, (bytes_left + stride - 1) / stride);
    }
    const PageIndex index = mem_.Lookup(vpn);
    uint64_t m = 0;
    // The policy's next real event (a PEBS sample) falls on access limit+1
    // of the run; when that is on this page, the segment ends on it and
    // delivers it in place instead of taking it on the scalar path.
    bool deliver = false;
    if (index != kInvalidPage && k > 1) {
      ctx_.run_page = &mem_.page(index);
      const uint64_t limit = policy_.RunAbsorbLimit(ctx_, is_write);
      deliver = limit < k;
      m = deliver ? limit + 1 : k;
    }
    if (m <= 1) {
      // Demand fault, page boundary, non-batchable policy, or an event due
      // on the very next access: one exact scalar access, then re-evaluate.
      DoAccessImpl(addr, is_write);
      addr += stride;
      --count;
      continue;
    }

    PageInfo& page = mem_.page(index);
    const PageKind kind = mem_.kind_of(index);
    // First access of the segment probes (and on a miss fills) the TLB
    // exactly like the scalar path. Accesses 2..m then re-touch the same
    // entry of a direct-mapped TLB with nothing in between: guaranteed hits
    // at a constant per-access cost.
    uint64_t first_ns;
    if (tlb_.Access(vpn, kind)) {
      first_ns = costs_.tlb_hit_ns;
    } else {
      first_ns = kind == PageKind::kHuge ? costs_.walk_huge_ns : costs_.walk_base_ns;
    }
    const TierId tier = mem_.tier_of(index);
    const TierLatency& lat = mem_.tier(tier).latency();
    const uint64_t access_ns = is_write ? lat.store_ns : lat.load_ns;
    first_ns += access_ns;
    const uint64_t step_ns = costs_.tlb_hit_ns + access_ns;

    // Event ordering: the scalar loop checks the tick/snapshot deadline after
    // every access, so no interior access may land past it. Cap the segment
    // at the first access whose post-access timestamp reaches the deadline —
    // that access is still part of the segment (counters first, then the
    // deadline check fires), matching scalar order bit for bit. A segment
    // cut short ends before its delivering access, so it only absorbs.
    const uint64_t t1 = now_ns_ + first_ns;
    if (t1 >= next_event_ns_) {
      m = 1;
      deliver = false;
    } else if (step_ns > 0) {
      const uint64_t r = next_event_ns_ - t1;  // >= 1
      const uint64_t cap = 2 + (r - 1) / step_ns;
      if (cap < m) {
        m = cap;
        deliver = false;
      }
    }

    if (kind == PageKind::kHuge) {
      // Idempotent per (subpage, is_write): one call == m scalar calls.
      mem_.NoteSubpageAccess(page, SubpageIndexOf(vpn), is_write);
    }
    tlb_.CountRepeatHits(kind, m - 1);
    metrics_.accesses += m;
    (is_write ? metrics_.stores : metrics_.loads) += m;
    const bool fast = tier == TierId::kFast;
    (fast ? metrics_.fast_accesses : metrics_.capacity_accesses) += m;
    window_accesses_ += m;
    window_fast_ += fast ? m : 0;

    now_ns_ += first_ns + (m - 1) * step_ns;
    ctx_.now_ns = now_ns_;
    // The absorbed accesses move no clock, so the delivering access sees the
    // `now_ns` the scalar path would give it.
    const uint64_t absorbed = deliver ? m - 1 : m;
    policy_.AbsorbRun(ctx_, index, page, Access{addr, is_write}, absorbed);
    SIM_DCHECK(ctx_.pending_app_ns == 0);
    if (deliver) {
      policy_.OnAccess(ctx_, index, page,
                       Access{addr + absorbed * stride, is_write});
      DrainPendingAppTime();
    }

    addr += m * stride;
    count -= m;

    if (now_ns_ >= next_event_ns_) {
      MaybeTickAndSnapshot();
    }
  }
}

void Engine::UpdateNextEvent() {
  next_event_ns_ = std::min(next_tick_ns_, next_snapshot_ns_);
}

void Engine::EnableCheckpoints(uint64_t interval_ns, std::function<void()> fn) {
  SIM_CHECK_GT(interval_ns, 0u);
  SIM_CHECK(options_.trace == nullptr);  // trace replay cannot resume mid-file
  checkpoint_interval_ns_ = interval_ns;
  checkpoint_fn_ = std::move(fn);
  next_checkpoint_ns_ = now_ns_ - now_ns_ % interval_ns + interval_ns;
}

namespace {
constexpr uint32_t kSectionEngine = 0x454e4753;  // "ENGS"
}  // namespace

void Engine::VisitState(StateCodec& c) {
  c.Section(kSectionEngine);
  c.Field("started", started_);
  c.Field("now_ns", now_ns_);
  c.Field("next_tick_ns", next_tick_ns_);
  c.Field("next_snapshot_ns", next_snapshot_ns_);
  c.Field("fault_shrunk_frames", fault_shrunk_frames_);
  c.Field("window_accesses", window_accesses_);
  c.Field("window_fast", window_fast_);
  c.Field("window_start_ns", window_start_ns_);
  c.Field("pending_app_ns", ctx_.pending_app_ns);
  c.Record("rng", rng_);
  c.Record("migration_budget", migration_budget_);
  c.Record("faults", fault_injector_);
  c.Record("tlb", tlb_);
  c.Record("metrics", metrics_);
  c.Record("mem", mem_);
  if (c.loading()) {
    ctx_.now_ns = now_ns_;
    UpdateNextEvent();
  }
}

void Engine::MaybeShrinkFastTier() {
  if (fault_shrunk_frames_ >= fault_shrink_cap_frames_) {
    return;  // cumulative cap reached; the site stops rolling entirely
  }
  if (!fault_injector_.ShouldInject(FaultSite::kTierShrink, now_ns_)) {
    return;
  }
  const uint64_t want = std::min(fault_shrink_step_frames_,
                                 fault_shrink_cap_frames_ - fault_shrunk_frames_);
  fault_shrunk_frames_ += mem_.ShrinkTier(TierId::kFast, want);
}

void Engine::MaybeTickAndSnapshot() {
  if (now_ns_ >= next_tick_ns_) {
    ctx_.now_ns = now_ns_;
    if (fault_shrink_cap_frames_ != 0) [[unlikely]] {
      MaybeShrinkFastTier();
    }
    policy_.Tick(ctx_);
    DrainPendingAppTime();
    // Skip ahead if the app stalled far past several quanta.
    next_tick_ns_ = std::max(next_tick_ns_ + options_.tick_quantum_ns,
                             now_ns_ - now_ns_ % options_.tick_quantum_ns +
                                 options_.tick_quantum_ns);
    metrics_.peak_rss_pages = std::max(metrics_.peak_rss_pages, mem_.rss_pages());
    if (options_.audit != nullptr) {
      options_.audit->OnTick(*this);
    }
  }
  if (now_ns_ >= next_snapshot_ns_) {
    TakeSnapshot();
    // Skip ahead like the tick path: a long app stall must not trigger a
    // burst of stale-window snapshots on the following accesses.
    const uint64_t interval = options_.snapshot_interval_ns;
    next_snapshot_ns_ =
        std::max(next_snapshot_ns_ + interval,
                 now_ns_ - now_ns_ % interval + interval);
  }
  UpdateNextEvent();
}

void Engine::TakeSnapshot() {
  TimelinePoint point;
  point.t_ns = now_ns_;
  ctx_.now_ns = now_ns_;
  point.classified = policy_.Classify(ctx_);
  point.fast_used_pages = mem_.fast_tier_pages();
  point.rss_pages = mem_.rss_pages();
  const uint64_t window_ns = now_ns_ - window_start_ns_;
  point.window_fast_ratio =
      window_accesses_ == 0 ? 0.0
                            : static_cast<double>(window_fast_) /
                                  static_cast<double>(window_accesses_);
  point.window_mops = window_ns == 0 ? 0.0
                                     : static_cast<double>(window_accesses_) * 1e3 /
                                           static_cast<double>(window_ns);
  metrics_.timeline.push_back(point);
  window_accesses_ = 0;
  window_fast_ = 0;
  window_start_ns_ = now_ns_;
}

Vaddr Engine::DoAlloc(uint64_t bytes, bool use_thp) {
  ctx_.now_ns = now_ns_;
  AllocOptions opts = policy_.PlacementFor(ctx_, bytes, use_thp);
  opts.use_thp = use_thp && opts.use_thp;
  const Vaddr start = mem_.AllocateRegion(bytes, opts);
  const Vpn start_vpn = VpnOf(start);
  const uint64_t num_pages = mem_.RegionAt(start)->second;
  for (Vpn vpn = start_vpn; vpn < start_vpn + num_pages;) {
    const PageIndex index = mem_.Lookup(vpn);
    SIM_DCHECK(index != kInvalidPage);
    PageInfo& page = mem_.page(index);
    policy_.OnPageAllocated(ctx_, index, page);
    now_ns_ += costs_.alloc_page_ns * page.size_pages();
    vpn += page.size_pages();
  }
  DrainPendingAppTime();
  if (options_.trace != nullptr) {
    options_.trace->RecordAlloc(bytes, opts.use_thp, start);
  }
  return start;
}

void Engine::DoFree(Vaddr start) {
  if (options_.trace != nullptr) {
    options_.trace->RecordFree(start);
  }
  ctx_.now_ns = now_ns_;
  const auto region = mem_.RegionAt(start);
  SIM_CHECK(region.has_value());
  const Vpn start_vpn = region->first;
  const uint64_t num_pages = region->second;
  // Notify the policy about each page before the region dies.
  for (Vpn vpn = start_vpn; vpn < start_vpn + num_pages;) {
    const PageIndex index = mem_.Lookup(vpn);
    if (index == kInvalidPage) {
      ++vpn;  // hole left by a split
      continue;
    }
    PageInfo& page = mem_.page(index);
    policy_.OnPageFreed(ctx_, index, page);
    vpn += page.size_pages();
  }
  mem_.FreeRegion(start);
  DrainPendingAppTime();
}

// --- App facade ---------------------------------------------------------------

Vaddr App::Alloc(uint64_t bytes, bool use_thp) { return engine_.DoAlloc(bytes, use_thp); }
void App::Free(Vaddr start) { engine_.DoFree(start); }
void App::Read(Vaddr addr) { engine_.DoAccess(addr, /*is_write=*/false); }
void App::Write(Vaddr addr) { engine_.DoAccess(addr, /*is_write=*/true); }
void App::ReadRun(Vaddr addr, uint64_t count, uint64_t stride) {
  engine_.DoAccessRun(addr, count, stride, /*is_write=*/false);
}
void App::WriteRun(Vaddr addr, uint64_t count, uint64_t stride) {
  engine_.DoAccessRun(addr, count, stride, /*is_write=*/true);
}
uint64_t App::now_ns() const { return engine_.now_ns(); }
uint64_t App::accesses_issued() const { return engine_.accesses(); }

}  // namespace memtis
