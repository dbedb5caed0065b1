// Page access histogram — the core data structure of MEMTIS (paper §4.1.3).
//
// 16 exponentially-scaled bins: bin n counts the number of distinct 4 KiB
// units whose hotness factor H falls in [2^n, 2^(n+1)); the last bin is
// unbounded. Exponential bins make cooling a one-slot left shift (halving H
// moves a page exactly one bin down) and match the Zipf/Pareto nature of page
// access frequency. The whole structure is 16 counters (128 bytes).

#ifndef MEMTIS_SIM_SRC_MEMTIS_HISTOGRAM_H_
#define MEMTIS_SIM_SRC_MEMTIS_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstdint>

#include "src/snapshot/state_codec.h"

namespace memtis {

class AccessHistogram {
 public:
  static constexpr int kBins = 16;

  // Bin index of a hotness factor: floor(log2(H)) clamped to [0, 15].
  // H = 0 and H = 1 both land in bin 0.
  static int BinOf(uint64_t hotness) {
    if (hotness < 2) {
      return 0;
    }
    const int bin = std::bit_width(hotness) - 1;
    return bin >= kBins ? kBins - 1 : bin;
  }

  // Lower edge of a bin: the minimum hotness classified into it.
  static uint64_t BinFloor(int bin) { return bin <= 0 ? 0 : 1ULL << bin; }

  void Add(int bin, uint64_t units) { bins_[bin] += units; }
  void Remove(int bin, uint64_t units);
  void Move(int from, int to, uint64_t units) {
    if (from != to) {
      Remove(from, units);
      Add(to, units);
    }
  }

  // Cooling: every page's H halves, so each bin's population moves one bin
  // left (bin 1 merges into bin 0). Pages in the unbounded top bin may stay
  // put; the caller corrects those during its cooling scan (paper §4.2.2).
  void Cool();

  uint64_t count(int bin) const { return bins_[bin]; }
  uint64_t total() const;

  // Units counted at or above `bin`.
  uint64_t UnitsAtOrAbove(int bin) const;

  // Dynamic threshold adaptation (paper Algorithm 1). `fast_capacity_units`
  // is the fast tier size in 4 KiB units; alpha is the fill-confidence factor
  // (0.9). Thresholds are bin indices; cold may be negative (nothing cold).
  struct Thresholds {
    int hot = 1;
    int warm = 1;
    int cold = 0;
  };
  Thresholds ComputeThresholds(uint64_t fast_capacity_units, double alpha) const;

  void VisitState(StateCodec& c) { c.Array("bins", bins_); }

 private:
  std::array<uint64_t, kBins> bins_{};
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_MEMTIS_HISTOGRAM_H_
