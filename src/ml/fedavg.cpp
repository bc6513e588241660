#include "ml/fedavg.h"

#include <algorithm>

namespace simdc::ml {

namespace kernels {
namespace {

/// Branch-free Knuth TwoSum: s = fl(a + b), err the exact residual so
/// that a + b == s + err. No magnitude precondition, no branches — one
/// straight-line dependency chain per lane, so the surrounding loops
/// vectorize.
inline void TwoSum(double a, double b, double& s, double& err) {
  s = a + b;
  const double bb = s - a;
  err = (a - (s - bb)) + (b - bb);
}

/// One cascade step shared by every kernel: folds term `t` into the
/// (sum, c1, c2) triple. Two error-free TwoSums; only the final c2 += e2
/// rounds, which is what bounds the order sensitivity (see fedavg.h).
inline void CascadeStep(double t, double& sum, double& c1, double& c2) {
  double s, e1;
  TwoSum(sum, t, s, e1);
  sum = s;
  double s2, e2;
  TwoSum(c1, e1, s2, e2);
  c1 = s2;
  c2 += e2;
}

/// The one loop body of every CascadeAdd variant. Always inlined, so each
/// variant compiles it for its own target.
[[gnu::always_inline]] inline void CascadeAddLoop(
    const float* SIMDC_RESTRICT weights, std::size_t n, double scale,
    double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
    double* SIMDC_RESTRICT c2) {
  for (std::size_t i = 0; i < n; ++i) {
    CascadeStep(scale * static_cast<double>(weights[i]), sum[i], c1[i],
                c2[i]);
  }
}

/// The one loop body of every CascadeMerge variant. Each of the other
/// cascade's terms is itself a partial-sum term inside the invariance
/// window, so folding the three through the same cascade keeps the merged
/// value within the window of the flat serial sum.
[[gnu::always_inline]] inline void CascadeMergeLoop(
    const double* SIMDC_RESTRICT other_sum,
    const double* SIMDC_RESTRICT other_c1,
    const double* SIMDC_RESTRICT other_c2, std::size_t n,
    double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
    double* SIMDC_RESTRICT c2) {
  for (std::size_t i = 0; i < n; ++i) {
    CascadeStep(other_sum[i], sum[i], c1[i], c2[i]);
    CascadeStep(other_c1[i], sum[i], c1[i], c2[i]);
    CascadeStep(other_c2[i], sum[i], c1[i], c2[i]);
  }
}

using AddFn = void (*)(const float*, std::size_t, double, double*, double*,
                       double*);
using MergeFn = void (*)(const double*, const double*, const double*,
                         std::size_t, double*, double*, double*);

/// One variant's pair of kernels.
struct Variant {
  AddFn add;
  MergeFn merge;
};

void CascadeAddPortable(const float* SIMDC_RESTRICT weights, std::size_t n,
                        double scale, double* SIMDC_RESTRICT sum,
                        double* SIMDC_RESTRICT c1, double* SIMDC_RESTRICT c2) {
  CascadeAddLoop(weights, n, scale, sum, c1, c2);
}

void CascadeMergePortable(const double* SIMDC_RESTRICT other_sum,
                          const double* SIMDC_RESTRICT other_c1,
                          const double* SIMDC_RESTRICT other_c2, std::size_t n,
                          double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
                          double* SIMDC_RESTRICT c2) {
  CascadeMergeLoop(other_sum, other_c1, other_c2, n, sum, c1, c2);
}

#ifdef SIMDC_ISA_AVX2

// "avx2" and not "avx2,fma": without fma the compiler has no fused
// multiply-add to contract scale·w + sum into, so the vector loop rounds
// exactly where the scalar reference does. (A build whose own flags
// enable fma may contract the reference and every variant alike; a float
// times an integer sample count below 2^29 is exact in double, so the
// bits still agree — CI builds for x86-64-v3 to pin that.)
__attribute__((target("avx2"))) void CascadeAddAvx2(
    const float* SIMDC_RESTRICT weights, std::size_t n, double scale,
    double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
    double* SIMDC_RESTRICT c2) {
  CascadeAddLoop(weights, n, scale, sum, c1, c2);
}

__attribute__((target("avx2"))) void CascadeMergeAvx2(
    const double* SIMDC_RESTRICT other_sum,
    const double* SIMDC_RESTRICT other_c1,
    const double* SIMDC_RESTRICT other_c2, std::size_t n,
    double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
    double* SIMDC_RESTRICT c2) {
  CascadeMergeLoop(other_sum, other_c1, other_c2, n, sum, c1, c2);
}
#endif

Variant VariantFor(Isa isa) {
  SIMDC_CHECK(Supports(isa), "cascade kernel variant " << ToString(isa)
                                 << " is not supported on this CPU/build");
#ifdef SIMDC_ISA_AVX2
  if (isa == Isa::kAvx2) return {CascadeAddAvx2, CascadeMergeAvx2};
#endif
  return {CascadeAddPortable, CascadeMergePortable};
}

const Variant& Dispatched() {
  static const Variant variant = VariantFor(DispatchedIsa());
  return variant;
}

}  // namespace

void CascadeAddScalar(std::span<const float> weights, double scale,
                      std::span<double> sum, std::span<double> c1,
                      std::span<double> c2) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    CascadeStep(scale * static_cast<double>(weights[i]), sum[i], c1[i],
                c2[i]);
  }
}

void CascadeAdd(const float* SIMDC_RESTRICT weights, std::size_t n,
                double scale, double* SIMDC_RESTRICT sum,
                double* SIMDC_RESTRICT c1, double* SIMDC_RESTRICT c2) {
  Dispatched().add(weights, n, scale, sum, c1, c2);
}

void CascadeAdd(Isa isa, const float* SIMDC_RESTRICT weights, std::size_t n,
                double scale, double* SIMDC_RESTRICT sum,
                double* SIMDC_RESTRICT c1, double* SIMDC_RESTRICT c2) {
  VariantFor(isa).add(weights, n, scale, sum, c1, c2);
}

void CascadeMerge(const double* SIMDC_RESTRICT other_sum,
                  const double* SIMDC_RESTRICT other_c1,
                  const double* SIMDC_RESTRICT other_c2, std::size_t n,
                  double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
                  double* SIMDC_RESTRICT c2) {
  Dispatched().merge(other_sum, other_c1, other_c2, n, sum, c1, c2);
}

void CascadeMerge(Isa isa, const double* SIMDC_RESTRICT other_sum,
                  const double* SIMDC_RESTRICT other_c1,
                  const double* SIMDC_RESTRICT other_c2, std::size_t n,
                  double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
                  double* SIMDC_RESTRICT c2) {
  VariantFor(isa).merge(other_sum, other_c1, other_c2, n, sum, c1, c2);
}

}  // namespace kernels

Status FedAvgAggregator::Add(std::span<const float> weights, float bias,
                             std::size_t sample_count) {
  State& s = state_;
  if (weights.size() != s.accumulator.size()) {
    return InvalidArgument("FedAvg: model dim " +
                           std::to_string(weights.size()) +
                           " != aggregator dim " + std::to_string(dim()));
  }
  if (sample_count == 0) {
    return InvalidArgument("FedAvg: client update with zero samples");
  }
  const auto w = static_cast<double>(sample_count);
  kernels::CascadeAdd(weights.data(), s.accumulator.size(), w,
                      s.accumulator.data(), s.accumulator_c1.data(),
                      s.accumulator_c2.data());
  kernels::CascadeStep(w * static_cast<double>(bias), s.bias_accumulator,
                       s.bias_accumulator_c1, s.bias_accumulator_c2);
  s.accumulator_samples += sample_count;
  ++s.accumulator_clients;
  return Status::Ok();
}

void FedAvgAggregator::MergeFrom(const FedAvgAggregator& other) {
  SIMDC_CHECK(other.dim() == dim(),
              "FedAvgAggregator::MergeFrom: dimension mismatch");
  State& s = state_;
  const State& o = other.state_;
  kernels::CascadeMerge(o.accumulator.data(), o.accumulator_c1.data(),
                        o.accumulator_c2.data(), s.accumulator.size(),
                        s.accumulator.data(), s.accumulator_c1.data(),
                        s.accumulator_c2.data());
  kernels::CascadeStep(o.bias_accumulator, s.bias_accumulator,
                       s.bias_accumulator_c1, s.bias_accumulator_c2);
  kernels::CascadeStep(o.bias_accumulator_c1, s.bias_accumulator,
                       s.bias_accumulator_c1, s.bias_accumulator_c2);
  kernels::CascadeStep(o.bias_accumulator_c2, s.bias_accumulator,
                       s.bias_accumulator_c1, s.bias_accumulator_c2);
  s.accumulator_samples += o.accumulator_samples;
  s.accumulator_clients += o.accumulator_clients;
}

Result<LrModel> FedAvgAggregator::Aggregate() const {
  const State& s = state_;
  if (s.accumulator_samples == 0) {
    return FailedPrecondition("FedAvg: no client updates to aggregate");
  }
  LrModel model(dim());
  const auto total = static_cast<double>(s.accumulator_samples);
  auto weights = model.weights();
  const double* SIMDC_RESTRICT sum = s.accumulator.data();
  const double* SIMDC_RESTRICT c1 = s.accumulator_c1.data();
  const double* SIMDC_RESTRICT c2 = s.accumulator_c2.data();
  float* SIMDC_RESTRICT out = weights.data();
  for (std::size_t i = 0; i < s.accumulator.size(); ++i) {
    out[i] =
        static_cast<float>(kernels::CascadeValue(sum[i], c1[i], c2[i]) / total);
  }
  model.bias() = static_cast<float>(
      kernels::CascadeValue(s.bias_accumulator, s.bias_accumulator_c1,
                            s.bias_accumulator_c2) /
      total);
  return model;
}

void FedAvgAggregator::Reset() {
  State& s = state_;
  std::fill(s.accumulator.begin(), s.accumulator.end(), 0.0);
  std::fill(s.accumulator_c1.begin(), s.accumulator_c1.end(), 0.0);
  std::fill(s.accumulator_c2.begin(), s.accumulator_c2.end(), 0.0);
  s.bias_accumulator = s.bias_accumulator_c1 = s.bias_accumulator_c2 = 0.0;
  s.accumulator_samples = s.accumulator_clients = 0;
}

}  // namespace simdc::ml
