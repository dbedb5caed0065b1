// Small statistics helpers shared by metrics collection and benches.

#ifndef MEMTIS_SIM_SRC_COMMON_STATS_H_
#define MEMTIS_SIM_SRC_COMMON_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/snapshot/state_codec.h"

namespace memtis {

// Streaming mean/variance/min/max (Welford).
class RunningStat {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

  void VisitState(StateCodec& c) {
    c.Field("count", count_);
    c.Field("mean", mean_);
    c.Field("m2", m2_);
    c.Field("min", min_);
    c.Field("max", max_);
  }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exponential moving average with configurable decay (new = decay*sample +
// (1-decay)*old). Used by the ksampled CPU-usage controller.
class Ema {
 public:
  explicit Ema(double decay) : decay_(decay) {}

  void Add(double sample);
  double value() const { return value_; }
  bool initialized() const { return initialized_; }

  void VisitState(StateCodec& c) {
    c.Field("value", value_);
    c.Field("initialized", initialized_);
  }

 private:
  double decay_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Geometric mean of positive values; returns 0 for an empty span.
double GeoMean(std::span<const double> values);

// Pearson correlation coefficient; returns 0 if either side is constant.
double PearsonCorrelation(std::span<const double> xs, std::span<const double> ys);

// p-th percentile (0..100) by nearest-rank on a copy of the data.
double Percentile(std::vector<double> values, double p);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_COMMON_STATS_H_
