// Statistics utilities: running moments, percentiles, Pearson correlation,
// and histograms.
//
// Table II of the paper reports Pearson correlation coefficients between
// user-defined traffic curves and DeviceFlow's actual dispatch schedule;
// the platform also aggregates performance samples (CPU%, memory, power)
// collected from benchmarking devices.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace simdc {

/// Welford single-pass accumulator for mean/variance/min/max.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  /// Exact Neumaier-compensated running total. Never reconstructed from
  /// mean * count, whose error compounds across chained Merge() calls.
  double sum() const { return count_ ? sum_ + sum_c_ : 0.0; }

 private:
  void AccumulateSum(double x);

  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  double sum_c_ = 0.0;  // Neumaier compensation term for sum_
};

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 when either series has zero variance or fewer than 2 points.
double PearsonCorrelation(std::span<const double> x, std::span<const double> y);

/// Percentile with linear interpolation; p in [0, 100]. Copies + sorts.
double Percentile(std::span<const double> values, double p);

/// Fixed-bin histogram over [lo, hi); out-of-range values clamp to edge
/// bins. Non-finite samples are routed explicitly: ±infinity counts into
/// the corresponding edge bin, NaN is dropped (and tallied in
/// nan_dropped()) — never cast to an integer, which would be UB.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  /// NaN samples seen by Add (excluded from total()/bins).
  std::size_t nan_dropped() const { return nan_dropped_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Approximate percentile (p in [0, 1]) by linear interpolation inside
  /// the bin holding the p-th sample, assuming samples spread uniformly
  /// within each bin — exact to one bin of resolution. Returns 0 on an
  /// empty histogram; p clamps to [0, 1].
  double ApproxPercentile(double p) const;

  /// Renders a compact ASCII bar chart: one "[lo, hi) count ###" row per
  /// bin, bars scaled to `width` at the fullest bin.
  std::string ToAscii(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nan_dropped_ = 0;
};

}  // namespace simdc
