// Deterministic random number generation for the simulator.
//
// Everything in the simulator must be reproducible from a seed, so we carry our
// own engines instead of relying on implementation-defined std::
// distributions. Rng is xoshiro256** seeded via SplitMix64; ZipfSampler uses
// the rejection-inversion method of Hörmann & Derflinger, which samples a
// Zipf(s) distribution over {1..n} in O(1). A small per-sampler table lets a
// draw skip the method's libm calls wherever their outcome is already known;
// the draws are exactly those of the method itself (see ZipfSampler).

#ifndef MEMTIS_SIM_SRC_COMMON_RNG_H_
#define MEMTIS_SIM_SRC_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "src/snapshot/state_codec.h"

namespace memtis {

// SplitMix64: used for seeding and as a cheap stateless mixer.
constexpr uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0 by Blackman & Vigna. Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  uint64_t Next();

  // Uniform in [0, bound) using Lemire's multiply-shift reduction (unbiased
  // enough for simulation purposes; bound is always << 2^64 here).
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial.
  bool NextBool(double p_true);

  // Uniform in [lo, hi].
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

  // Stream-position checkpointing: the four state words are the entire
  // generator, so saving and restoring them resumes the exact sequence.
  void VisitState(StateCodec& c) { c.Array("s", s_); }

 private:
  uint64_t s_[4];
};

// Zipf sampler over ranks {0, .., n-1} with exponent s (s > 0, s != 1 handled
// as well as s == 1). Rank 0 is the most popular item.
//
// A draw is the rejection-inversion loop. Each iteration takes the 53-bit
// deviate r = rng.Next() >> 11 (the bits NextDouble() uses) and either returns
// a rank or rejects, as a pure function of r: Reference(r), which is the only
// definition of a draw. It costs up to three pow() calls, so the constructor
// tabulates where its outcome is already known. For ranks k <= min(n, 256) it
// estimates the r at which the inverted deviate x crosses k - 0.5 (the
// rounded rank changes) and k - threshold_ (the squeeze starts to accept k).
// u(r) is exactly monotone in r, and x is monotone in u up to libm's ~1 ULP
// error, which moves a crossing by O(1) steps of r; a guard band of 2^16
// steps around each estimate absorbs that. Between bands the order of the
// crossings alone fixes the outcome: "accept k", or "accept k iff
// u >= accept_[k-1]", where accept_ holds the reference's own acceptance
// bound, so that comparison is the reference's comparison. Inside a band,
// beyond the tabulated ranks, and for exponents where H() loses too much
// precision for the band to cover, Iterate() falls back to Reference(r).
// Every iteration still consumes exactly one Next() and the table is a pure
// function of (n, s), so ranks and Rng state match Reference() draw for draw.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  // Draws a rank in [0, n): Iterate(rng.Next() >> 11) until it accepts.
  uint64_t Sample(Rng& rng) const;

  // One loop iteration on the 53-bit deviate r: a 0-based rank, or kReject.
  // Reference() evaluates the rejection-inversion expression; Iterate()
  // answers from the table where it can and calls Reference() otherwise.
  static constexpr uint64_t kReject = ~uint64_t{0};
  uint64_t Reference(uint64_t r) const;
  uint64_t Iterate(uint64_t r) const;

  // Exclusive end of every table interval, in increasing r (the last is
  // 2^53): each guard-band edge, for tests that sweep around them.
  const std::vector<uint64_t>& interval_ends() const { return ends_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;
  double U(uint64_t r) const;
  void BuildTable();

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;  // s_ == 1 needs a different integral; folded into H().

  // Interval i covers r in [ends_[i-1], ends_[i]) with verdict tags_[i]:
  // 0 = evaluate Reference(r), 2k = accept rank k, 2k+1 = accept rank k iff
  // u >= accept_[k-1]. first_[b] is the first interval ending above bucket
  // b's start, bucket b holding r >> bucket_shift_ == b.
  std::vector<uint64_t> ends_;
  std::vector<uint16_t> tags_;
  std::vector<double> accept_;
  std::vector<uint16_t> first_;
  int bucket_shift_ = 53;
};

// Pareto (type I) sampler returning values >= 1 with shape alpha.
class ParetoSampler {
 public:
  explicit ParetoSampler(double alpha) : alpha_(alpha) {}
  double Sample(Rng& rng) const;

 private:
  double alpha_;
};

// Fisher-Yates permutation of [0, n), used to scatter Zipf ranks over an
// address range so the hot set is not physically contiguous.
std::vector<uint32_t> RandomPermutation(uint32_t n, Rng& rng);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_COMMON_RNG_H_
