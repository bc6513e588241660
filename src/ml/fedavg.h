// FedAvg aggregation (McMahan et al., AISTATS 2017) — the aggregation
// strategy the paper uses for its CTR experiments (§II-A, §VI-A).
//
// The global objective is min_w Σ_k p_k F_k(w; D_k) with p_k proportional
// to client dataset sizes; one aggregation step averages client models
// weighted by their sample counts.
//
// Order invariance. The accumulator keeps each element as a three-term
// compensated cascade (sum, c1, c2): every Add runs two error-free TwoSum
// transforms and pushes the residual into c2, so the represented value
// sum + c1 + c2 tracks the exact Σ w_k·x_k[i] to a relative error of
// roughly n³·2⁻¹⁵⁹ (n = terms added). Reordering or regrouping the same
// multiset of updates perturbs the represented value only inside that
// window — ~2⁻⁹⁹ at a million updates — which is orders of magnitude
// below where the final double round-off (2⁻⁵³) and float publication
// (2⁻²⁴) can observe it. That is what lets cloud::AggregationService's
// per-lane partial aggregators accumulate in parallel and merge in any
// fixed order while reproducing a serial accumulate bit-for-bit;
// tests/ml_test.cpp pins the invariance with adversarial shuffles and
// shard splits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/isa.h"
#include "common/restrict.h"
#include "ml/lr_model.h"

namespace simdc::ml {

namespace kernels {

/// Scalar reference cascade: for each i, folds scale·weights[i] into the
/// (sum, c1, c2) triple with two TwoSum transforms. Defines the numerics
/// every other accumulate kernel must reproduce bit-for-bit.
void CascadeAddScalar(std::span<const float> weights, double scale,
                      std::span<double> sum, std::span<double> c1,
                      std::span<double> c2);

/// Production kernel: the cascade of CascadeAddScalar over contiguous
/// arrays, run by the DispatchedIsa() variant (common/isa.h): 2 doubles
/// per instruction portable at SSE2, 4 under AVX2. Every variant compiles
/// the one restrict-qualified loop body (branch-free TwoSum per element)
/// for its own target, so the compiler can neither reorder nor contract
/// the cascade: each is bit-identical to CascadeAddScalar
/// (tests/ml_test.cpp and bench_micro_kernels compare bytes, and
/// fedavg_add_scalar vs fedavg_add_simd measures the gain).
void CascadeAdd(const float* SIMDC_RESTRICT weights, std::size_t n,
                double scale, double* SIMDC_RESTRICT sum,
                double* SIMDC_RESTRICT c1, double* SIMDC_RESTRICT c2);
/// Runs the `isa` variant, which must be Supported (SIMDC_CHECK): the
/// parity tests pin each variant this CPU can run.
void CascadeAdd(Isa isa, const float* SIMDC_RESTRICT weights, std::size_t n,
                double scale, double* SIMDC_RESTRICT sum,
                double* SIMDC_RESTRICT c1, double* SIMDC_RESTRICT c2);

/// Folds another cascade's three terms into (sum, c1, c2) — the exact
/// shard-reduce step — through the DispatchedIsa() variant.
void CascadeMerge(const double* SIMDC_RESTRICT other_sum,
                  const double* SIMDC_RESTRICT other_c1,
                  const double* SIMDC_RESTRICT other_c2, std::size_t n,
                  double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
                  double* SIMDC_RESTRICT c2);
/// CascadeMerge through the `isa` variant (must be Supported).
void CascadeMerge(Isa isa, const double* SIMDC_RESTRICT other_sum,
                  const double* SIMDC_RESTRICT other_c1,
                  const double* SIMDC_RESTRICT other_c2, std::size_t n,
                  double* SIMDC_RESTRICT sum, double* SIMDC_RESTRICT c1,
                  double* SIMDC_RESTRICT c2);

/// Rounds a cascade triple to one double; the fixed evaluation order
/// (low terms first) is part of the bit-identity contract.
inline double CascadeValue(double sum, double c1, double c2) {
  return sum + (c1 + c2);
}

}  // namespace kernels

/// Streaming FedAvg aggregator. Feed updates as they arrive (possibly
/// across a DeviceFlow-shaped schedule), then call Aggregate() when the
/// trigger condition fires. Accumulation is order-invariant (see the file
/// comment), so disjoint partial aggregators merged via MergeFrom produce
/// the same published model as one serial aggregator fed every update.
class FedAvgAggregator {
 public:
  /// The whole cascade, as a value: per element, `accumulator` carries the
  /// primary sums of weight·sample_count terms and accumulator_c1/_c2 the
  /// two error planes (see kernels::CascadeAdd); the bias has its own
  /// triple. cloud::AggregationSnapshot derives from it, so checkpoints
  /// carry the cascade bit-exactly by assignment.
  struct State {
    std::vector<double> accumulator;
    std::vector<double> accumulator_c1;
    std::vector<double> accumulator_c2;
    double bias_accumulator = 0.0;
    double bias_accumulator_c1 = 0.0;
    double bias_accumulator_c2 = 0.0;
    std::uint64_t accumulator_samples = 0;
    std::uint64_t accumulator_clients = 0;
  };

  explicit FedAvgAggregator(std::uint32_t dim)
      : state_{std::vector<double>(dim), std::vector<double>(dim),
               std::vector<double>(dim)} {}

  /// Adds one client update — its weights and bias — weighted by its
  /// sample count. `weights` may alias a stored payload blob (ModelView).
  Status Add(std::span<const float> weights, float bias,
             std::size_t sample_count);
  /// Adds one client model weighted by its sample count.
  Status Add(const LrModel& model, std::size_t sample_count) {
    return Add(model.weights(), model.bias(), sample_count);
  }

  /// Folds `other`'s accumulated state into this aggregator (partial-sum
  /// reduction). Both must share a dimension. `other` is unchanged.
  void MergeFrom(const FedAvgAggregator& other);

  /// Weighted-average model of everything added since the last Reset.
  /// Fails when no samples were added.
  Result<LrModel> Aggregate() const;

  void Reset();

  std::size_t clients() const { return state_.accumulator_clients; }
  std::size_t total_samples() const { return state_.accumulator_samples; }

  /// The cascade bit for bit, for checkpointing.
  const State& state() const { return state_; }
  /// Restores the cascade from a checkpoint. All three planes must match
  /// this aggregator's dimension.
  void Restore(const State& state) {
    SIMDC_CHECK(state.accumulator.size() == dim() &&
                    state.accumulator_c1.size() == dim() &&
                    state.accumulator_c2.size() == dim(),
                "FedAvgAggregator::Restore: dimension mismatch");
    state_ = state;
  }

 private:
  State state_;
  std::uint32_t dim() const {
    return static_cast<std::uint32_t>(state_.accumulator.size());
  }
};

}  // namespace simdc::ml
