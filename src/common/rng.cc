#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace memtis {
namespace {

constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  SIM_DCHECK(bound > 0);
  return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
}

double Rng::NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

uint64_t Rng::NextInRange(uint64_t lo, uint64_t hi) {
  SIM_DCHECK(lo <= hi);
  return lo + NextBelow(hi - lo + 1);
}

// --- ZipfSampler -------------------------------------------------------------
//
// Rejection-inversion sampling (Hörmann & Derflinger 1996). H is the integral
// of the (shifted) density; we invert it on a uniform deviate and accept with
// probability proportional to the true mass at the resulting integer.

namespace {

constexpr uint64_t kTableRanks = 256;
constexpr uint64_t kGuard = uint64_t{1} << 16;  // steps of r per band side
constexpr uint64_t kDeviates = uint64_t{1} << 53;

}  // namespace

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
  SIM_CHECK(n >= 1);
  SIM_CHECK(s > 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
  BuildTable();
}

void ZipfSampler::BuildTable() {
  // Near (but not at) s = 1, H() and HInverse() cancel: their error grows
  // like 2^-53 / |1 - s|, i.e. up to ~3000 steps of r at |1 - s| = 1e-3, and
  // the band must stay well above that.
  const double off_one = std::fabs(s_ - 1.0);
  const bool tabulate = n_ > 1 && (off_one < 1e-12 || off_one >= 1e-3);
  const uint64_t ranks = tabulate ? std::min(n_, kTableRanks) : 0;

  // The crossings in increasing r (x falls as r grows) with the verdict that
  // holds past each: x = ranks + 0.5, then per k = ranks..1 the squeeze
  // bound k - threshold_ (accept k iff u >= accept_[k-1] past it) and k - 0.5
  // (accept k - 1 outright past it; below rank 1, Reference() clamps).
  const double to_r = 0x1.0p53 / (h_x1_ - h_n_);
  std::vector<double> at;
  std::vector<uint16_t> after;
  double h_upper = 0.0;
  if (ranks > 0) {
    h_upper = H(static_cast<double>(ranks) + 0.5);
    at.push_back((h_upper - h_n_) * to_r);
    after.push_back(static_cast<uint16_t>(2 * ranks));
  }
  accept_.resize(ranks);
  for (uint64_t k = ranks; k >= 1; --k) {
    const double kd = static_cast<double>(k);
    accept_[k - 1] = h_upper - std::pow(kd, -s_);  // H(k + 0.5) - k^-s
    at.push_back((H(kd - threshold_) - h_n_) * to_r);
    after.push_back(static_cast<uint16_t>(2 * k + 1));
    h_upper = H(kd - 0.5);
    at.push_back((h_upper - h_n_) * to_r);
    after.push_back(static_cast<uint16_t>(2 * (k - 1)));
  }
  for (size_t i = 1; i < at.size(); ++i) {
    if (!(at[i] > at[i - 1])) {  // out of order or NaN: trust none of it
      at.clear();
      accept_.clear();
      break;
    }
  }

  auto emit = [this](uint64_t end, uint16_t tag) {
    if (end <= (ends_.empty() ? 0 : ends_.back())) {
      return;
    }
    if (!tags_.empty() && tags_.back() == tag) {
      ends_.back() = end;
    } else {
      ends_.push_back(end);
      tags_.push_back(tag);
    }
  };
  uint16_t verdict = 0;  // below the first crossing: ranks beyond the table
  for (size_t i = 0; i < at.size(); ++i) {
    const uint64_t center = static_cast<uint64_t>(std::clamp(at[i], 0.0, 0x1.0p53));
    emit(center > kGuard ? center - kGuard : 0, verdict);
    emit(std::min(center + kGuard + 1, kDeviates), 0);
    verdict = after[i];
  }
  emit(kDeviates, verdict);

  // About four buckets per interval, so a lookup rarely scans; at most 2^11,
  // which keeps a full table within ~16 KiB.
  int bits = 0;
  while ((size_t{1} << bits) < 4 * ends_.size() && bits < 11) {
    ++bits;
  }
  bucket_shift_ = 53 - bits;
  first_.resize(size_t{1} << bits);
  size_t i = 0;
  for (size_t b = 0; b < first_.size(); ++b) {
    while (ends_[i] <= (static_cast<uint64_t>(b) << bucket_shift_)) {
      ++i;
    }
    first_[b] = static_cast<uint16_t>(i);
  }
}

double ZipfSampler::H(double x) const {
  if (std::fabs(s_ - 1.0) < 1e-12) {
    return std::log(x);
  }
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::HInverse(double x) const {
  if (std::fabs(s_ - 1.0) < 1e-12) {
    return std::exp(x);
  }
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

// u exactly as h_n_ + NextDouble() * (h_x1_ - h_n_) for the same Next().
double ZipfSampler::U(uint64_t r) const {
  return h_n_ + static_cast<double>(r) * 0x1.0p-53 * (h_x1_ - h_n_);
}

uint64_t ZipfSampler::Reference(uint64_t r) const {
  const double u = U(r);
  const double x = HInverse(u);
  double k = std::floor(x + 0.5);
  if (k < 1.0) {
    k = 1.0;
  } else if (k > static_cast<double>(n_)) {
    k = static_cast<double>(n_);
  }
  if (k - x <= threshold_ || u >= H(k + 0.5) - std::pow(k, -s_)) {
    return static_cast<uint64_t>(k) - 1;  // ranks are 0-based
  }
  return kReject;
}

uint64_t ZipfSampler::Iterate(uint64_t r) const {
  size_t i = first_[r >> bucket_shift_];
  while (ends_[i] <= r) {
    ++i;
  }
  const uint16_t tag = tags_[i];
  const uint64_t k = tag >> 1;
  if (k == 0) {
    return Reference(r);
  }
  if ((tag & 1) == 0 || U(r) >= accept_[k - 1]) {
    return k - 1;
  }
  return kReject;
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (n_ == 1) {
    return 0;
  }
  while (true) {
    const uint64_t rank = Iterate(rng.Next() >> 11);
    if (rank != kReject) {
      return rank;
    }
  }
}

double ParetoSampler::Sample(Rng& rng) const {
  const double u = 1.0 - rng.NextDouble();  // in (0, 1]
  return std::pow(u, -1.0 / alpha_);
}

std::vector<uint32_t> RandomPermutation(uint32_t n, Rng& rng) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(rng.NextBelow(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace memtis
