#include "src/audit/epoch_recorder.h"

#include <algorithm>

#include "src/common/json_fields.h"
#include "src/memtis/memtis_policy.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

void EpochSample::WriteJson(JsonWriter& w) const { EncodeJson(w, *this); }

EpochRecorder::EpochRecorder() : EpochRecorder(Options()) {}

EpochRecorder::EpochRecorder(const Options& options)
    : options_(options), next_epoch_ns_(options.interval_ns) {
  ring_.reserve(std::min<uint64_t>(options_.capacity, 1024));
}

void EpochRecorder::OnTick(Engine& engine) {
  if (engine.now_ns() < next_epoch_ns_) {
    return;
  }
  Record(engine);
  // Skip ahead if the run stalled past several epochs.
  next_epoch_ns_ = std::max(
      next_epoch_ns_ + options_.interval_ns,
      engine.now_ns() - engine.now_ns() % options_.interval_ns +
          options_.interval_ns);
}

void EpochRecorder::OnRunEnd(Engine& engine) { Record(engine); }

void EpochRecorder::Record(Engine& engine) {
  BaseCounters now;
  const MigrationStats& ms = engine.mem().migration_stats();
  now.accesses = engine.accesses();
  now.promoted_4k = ms.promoted_4k();
  now.demoted_4k = ms.demoted_4k();
  now.splits = ms.splits;
  now.collapses = ms.collapses;
  now.demand_faults = ms.demand_faults;
  now.shootdowns = engine.tlb().stats().shootdowns;

  EpochSample sample;
  sample.epoch = recorded_total_;
  sample.t_ns = engine.now_ns();
  sample.fast_used_pages = engine.mem().fast_tier_pages();
  sample.rss_pages = engine.mem().rss_pages();
  if (engine.mem().tenant_count() > 1) {
    sample.tenant_fast_pages.reserve(engine.mem().tenant_count());
    for (TenantId id = 0; id < engine.mem().tenant_count(); ++id) {
      sample.tenant_fast_pages.push_back(
          engine.mem().tenant_mapped_4k(id, TierId::kFast));
    }
  }

  const auto* policy = dynamic_cast<MemtisPolicy*>(&engine.policy());
  if (policy != nullptr) {
    const PebsSampler& sampler = policy->sampler();
    now.samples = sampler.stats().total_samples();
    now.period_raises = sampler.stats().period_raises;
    now.period_drops = sampler.stats().period_drops;
    sample.memtis = true;
    sample.load_period = sampler.period(SampleType::kLlcLoadMiss);
    sample.store_period = sampler.period(SampleType::kStore);
    sample.hot_bin = policy->hot_threshold_bin();
    sample.warm_bin = policy->warm_threshold_bin();
    sample.cold_bin = policy->cold_threshold_bin();
    for (int b = 0; b < AccessHistogram::kBins; ++b) {
      sample.hist_bins[b] = policy->page_histogram().count(b);
    }
    sample.promotion_backlog = policy->promotion_backlog();
    sample.demotion_backlog = policy->demotion_backlog();
    sample.split_backlog = policy->split_backlog();
  }

  sample.accesses = now.accesses - prev_.accesses;
  sample.promoted_4k = now.promoted_4k - prev_.promoted_4k;
  sample.demoted_4k = now.demoted_4k - prev_.demoted_4k;
  sample.splits = now.splits - prev_.splits;
  sample.collapses = now.collapses - prev_.collapses;
  sample.demand_faults = now.demand_faults - prev_.demand_faults;
  sample.shootdowns = now.shootdowns - prev_.shootdowns;
  sample.samples = now.samples - prev_.samples;
  sample.period_raises = now.period_raises - prev_.period_raises;
  sample.period_drops = now.period_drops - prev_.period_drops;
  prev_ = now;

  if (ring_.size() < options_.capacity) {
    ring_.push_back(sample);
  } else {
    ring_[recorded_total_ % options_.capacity] = sample;
  }
  ++recorded_total_;
}

std::vector<EpochSample> EpochRecorder::samples() const {
  // Once the ring has wrapped, the oldest sample sits in the next write slot.
  std::vector<EpochSample> out = ring_;
  if (recorded_total_ > ring_.size()) {
    std::rotate(out.begin(), out.begin() + recorded_total_ % ring_.size(), out.end());
  }
  return out;
}

void EpochRecorder::VisitState(StateCodec& c) {
  c.Section(0x45504348u);  // "EPCH"
  // Raw ring order (not chronological): a load restores slots verbatim so
  // the wrap arithmetic keyed on recorded_total_ keeps working — which needs
  // the ring as full as the count says.
  c.Array("ring", ring_);
  c.Field("recorded_total", recorded_total_);
  c.Field("next_epoch_ns", next_epoch_ns_);
  c.Record("prev", prev_);
  if (c.loading() && ring_.size() != std::min(recorded_total_, options_.capacity)) {
    c.Fail();
  }
}

void EpochRecorder::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Field("interval_ns", options_.interval_ns);
  w.Field("recorded_total", recorded_total_);
  w.Field("dropped", dropped());
  w.Key("samples");
  w.BeginArray();
  for (const EpochSample& s : samples()) {
    s.WriteJson(w);
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace memtis
