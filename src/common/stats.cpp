#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace simdc {

void RunningStats::AccumulateSum(double x) {
  // Neumaier variant of Kahan summation: exact to within one rounding of
  // the true sum regardless of magnitude ordering, so per-shard partials
  // merged round after round do not drift.
  const double t = sum_ + x;
  if (std::abs(sum_) >= std::abs(x)) {
    sum_c_ += (sum_ - t) + x;
  } else {
    sum_c_ += (x - t) + sum_;
  }
  sum_ = t;
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  AccumulateSum(x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  AccumulateSum(other.sum_);
  AccumulateSum(other.sum_c_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("PearsonCorrelation: size mismatch");
  }
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double Percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("Percentile: empty input");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("Percentile: p out of [0,100]");
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  // Finite bounds only: an infinite edge makes the bin width infinite and
  // (x - lo) / width NaN for every sample, which would reintroduce the
  // undefined integer cast Add() exists to avoid.
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    throw std::invalid_argument("Histogram: bounds must be finite");
  }
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
}

void Histogram::Add(double x) {
  // NaN cannot be binned: drop and tally. ±inf clamps to the edge bins.
  // Finite samples clamp in the double domain BEFORE the integer cast —
  // casting a value outside ptrdiff_t's range (any inf, or e.g. 1e300
  // against a narrow [lo, hi)) is undefined behavior, not a clamp.
  if (std::isnan(x)) {
    ++nan_dropped_;
    return;
  }
  const std::size_t last = counts_.size() - 1;
  std::size_t idx;
  if (std::isinf(x)) {
    idx = x > 0.0 ? last : 0;
  } else {
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    const double pos = (x - lo_) / width;
    if (pos <= 0.0) {
      idx = 0;
    } else if (pos >= static_cast<double>(last)) {
      idx = last;
    } else {
      idx = static_cast<std::size_t>(pos);
    }
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i + 1);
}

double Histogram::ApproxPercentile(double p) const {
  if (total_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the p-th sample under the nearest-rank-with-interpolation
  // convention: p spans [first sample, last sample].
  const double rank = p * static_cast<double>(total_ - 1);
  const auto target = static_cast<std::size_t>(rank);
  std::size_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (seen + counts_[i] > target) {
      // The target rank lands in bin i. Model the bin's k samples as
      // sitting at the midpoints of k equal sub-intervals of
      // [bin_lo, bin_hi) — the +0.5 keeps a lone sample estimated at the
      // bin's midpoint rather than its lower edge — and interpolate to
      // the rank's position.
      const double within =
          std::clamp((rank - static_cast<double>(seen) + 0.5) /
                         static_cast<double>(counts_[i]),
                     0.0, 1.0);
      return bin_lo(i) + (bin_hi(i) - bin_lo(i)) * within;
    }
    seen += counts_[i];
  }
  return bin_hi(counts_.size() - 1);  // unreachable for consistent totals
}

std::string Histogram::ToAscii(std::size_t width) const {
  std::size_t peak = 0;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    // Size the label exactly instead of truncating into a fixed buffer:
    // wide bin edges (|edge| >= 1e5 at %.3f) and large counts overflowed
    // the historical char[64].
    const int needed = std::snprintf(nullptr, 0, "[%8.3f, %8.3f) %6zu ",
                                     bin_lo(i), bin_hi(i), counts_[i]);
    if (needed > 0) {
      const auto offset = out.size();
      out.resize(offset + static_cast<std::size_t>(needed));
      std::snprintf(out.data() + offset, static_cast<std::size_t>(needed) + 1,
                    "[%8.3f, %8.3f) %6zu ", bin_lo(i), bin_hi(i), counts_[i]);
    }
    // Scale the bar in double precision: counts_[i] * width overflows
    // std::size_t once counts pass ~2^64 / width (reachable for week-long
    // million-device traces).
    const std::size_t bar =
        peak == 0 ? 0
                  : static_cast<std::size_t>(static_cast<double>(counts_[i]) *
                                             static_cast<double>(width) /
                                             static_cast<double>(peak));
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace simdc
