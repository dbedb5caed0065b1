#include "src/fault/fault.h"

#include <cstdlib>

#include "src/common/json.h"

namespace memtis {
namespace {

constexpr std::string_view kSiteNames[kNumFaultSites] = {
    "alloc-fail", "migrate-abort", "sample-drop", "budget-starve",
    "tier-shrink", "exchange-abort",
};

// Parses a non-negative integer; rejects trailing garbage.
bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseProb(std::string_view text, double* out) {
  if (text.empty()) {
    return false;
  }
  const std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || value < 0.0 || value > 1.0) {
    return false;
  }
  *out = value;
  return true;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// One site entry: <p>[@<start>-<end>][/<max>] after the '=' sign.
bool ParseSiteValue(std::string_view value, FaultSiteSpec* spec,
                    std::string* error) {
  std::string_view prob = value;
  const size_t slash = prob.find('/');
  if (slash != std::string_view::npos) {
    uint64_t max = 0;
    if (!ParseU64(prob.substr(slash + 1), &max)) {
      return Fail(error, "bad max-injections in fault entry");
    }
    spec->max_injections = max;
    prob = prob.substr(0, slash);
  }
  const size_t at = prob.find('@');
  if (at != std::string_view::npos) {
    const std::string_view window = prob.substr(at + 1);
    const size_t dash = window.find('-');
    if (dash == std::string_view::npos) {
      return Fail(error, "fault window must be <start>-<end>");
    }
    uint64_t start = 0;
    uint64_t end = 0;
    if (!ParseU64(window.substr(0, dash), &start) ||
        !ParseU64(window.substr(dash + 1), &end) || end <= start) {
      return Fail(error, "bad fault window bounds");
    }
    spec->window_start_ns = start;
    spec->window_end_ns = end;
    prob = prob.substr(0, at);
  }
  if (!ParseProb(prob, &spec->probability)) {
    return Fail(error, "fault probability must be in [0, 1]");
  }
  return true;
}

}  // namespace

std::string_view FaultSiteName(FaultSite site) {
  return kSiteNames[static_cast<int>(site)];
}

std::optional<FaultSite> FaultSiteFromName(std::string_view name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (kSiteNames[i] == name) {
      return static_cast<FaultSite>(i);
    }
  }
  return std::nullopt;
}

FaultPlan FaultPlan::Storm() {
  FaultPlan plan;
  plan.site(FaultSite::kAllocFail).probability = 0.05;
  plan.site(FaultSite::kMigrateAbort).probability = 0.10;
  plan.site(FaultSite::kSampleDrop).probability = 0.05;
  plan.site(FaultSite::kBudgetStarve).probability = 0.10;
  plan.site(FaultSite::kTierShrink).probability = 0.02;
  plan.site(FaultSite::kExchangeAbort).probability = 0.10;
  return plan;
}

bool FaultPlan::Parse(const std::string& spec, FaultPlan* out,
                      std::string* error) {
  FaultPlan plan;
  const std::string_view text(spec);
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = text.size();
    }
    const std::string_view entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      continue;  // tolerate "" and stray commas
    }
    if (entry == "none") {
      plan = FaultPlan();
      continue;
    }
    if (entry == "storm") {
      const uint64_t seed = plan.seed;
      plan = Storm();
      plan.seed = seed;
      continue;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Fail(error, "fault entry needs key=value: '" + std::string(entry) + "'");
    }
    const std::string_view key = entry.substr(0, eq);
    const std::string_view value = entry.substr(eq + 1);
    if (key == "seed") {
      if (!ParseU64(value, &plan.seed)) {
        return Fail(error, "bad fault seed");
      }
      continue;
    }
    if (key == "shrink-step" || key == "shrink-cap") {
      double fraction = 0.0;
      if (!ParseProb(value, &fraction)) {
        return Fail(error, "shrink fraction must be in [0, 1]");
      }
      (key == "shrink-step" ? plan.tier_shrink_step : plan.tier_shrink_cap) =
          fraction;
      continue;
    }
    const std::optional<FaultSite> site = FaultSiteFromName(key);
    if (!site.has_value()) {
      return Fail(error, "unknown fault site '" + std::string(key) + "'");
    }
    FaultSiteSpec parsed;  // fresh spec: repeating a site overwrites it
    if (!ParseSiteValue(value, &parsed, error)) {
      return false;
    }
    plan.site(*site) = parsed;
  }
  *out = plan;
  return true;
}

std::string FaultPlan::ToSpec() const {
  if (!enabled()) {
    return "none";
  }
  std::string spec;
  for (int i = 0; i < kNumFaultSites; ++i) {
    const FaultSiteSpec& s = sites[i];
    if (!s.active()) {
      continue;
    }
    if (!spec.empty()) {
      spec += ',';
    }
    spec += kSiteNames[i];
    spec += '=';
    spec += JsonWriter::FormatDouble(s.probability);
    if (s.window_start_ns != 0 || s.window_end_ns != UINT64_MAX) {
      spec += '@';
      spec += std::to_string(s.window_start_ns);
      spec += '-';
      spec += std::to_string(s.window_end_ns);
    }
    if (s.max_injections != 0) {
      spec += '/';
      spec += std::to_string(s.max_injections);
    }
  }
  if (seed != 0) {
    spec += ",seed=" + std::to_string(seed);
  }
  const FaultPlan defaults;
  if (sites[static_cast<int>(FaultSite::kTierShrink)].active()) {
    if (tier_shrink_step != defaults.tier_shrink_step) {
      spec += ",shrink-step=" + JsonWriter::FormatDouble(tier_shrink_step);
    }
    if (tier_shrink_cap != defaults.tier_shrink_cap) {
      spec += ",shrink-cap=" + JsonWriter::FormatDouble(tier_shrink_cap);
    }
  }
  return spec;
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t run_seed)
    : plan_(plan), enabled_(plan.enabled()) {
  // Distinct SplitMix64 stream from both seeds; independent of the engine's
  // workload RNG so enabling faults never perturbs the access sequence.
  uint64_t mix = run_seed ^ 0xfa017f1a57ULL;
  SplitMix64(mix);
  mix ^= plan.seed * 0x9e3779b97f4a7c15ULL;
  rng_ = Rng(SplitMix64(mix));
}

bool FaultInjector::Roll(FaultSite site, uint64_t now_ns) {
  const int index = static_cast<int>(site);
  const FaultSiteSpec& spec = plan_.sites[index];
  if (!spec.active() || !spec.InWindow(now_ns)) {
    return false;
  }
  if (spec.max_injections != 0 && stats_.injected[index] >= spec.max_injections) {
    return false;
  }
  ++stats_.rolls[index];
  // p >= 1 skips the draw so "always fire" sites stay stream-neutral too.
  const bool fire = spec.probability >= 1.0 || rng_.NextBool(spec.probability);
  if (fire) {
    ++stats_.injected[index];
  }
  return fire;
}

}  // namespace memtis
