#include "ml/operators.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "common/restrict.h"
#include "common/rng.h"

namespace simdc::ml {
namespace {

/// Epoch ordering shared by both kernels so their only differences are
/// numerical (precision / traversal order), not statistical. Sizes the
/// call's order vector to `n` and refills it in place with a shuffled
/// identity: identical permutations to building a fresh identity each
/// epoch, with one allocation per call.
void FillEpochOrder(std::vector<std::size_t>& order, std::size_t n,
                    Rng& rng) {
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
}

}  // namespace

void ServerLrOperator::Train(LrModel& model,
                             std::span<const data::Example> examples,
                             const TrainConfig& config) const {
  if (examples.empty()) return;
  Rng rng(config.shuffle_seed);
  // Hoisted out of the example loop: raw weight pointer (span indexing per
  // feature adds up over epochs × examples × features) and the bias, which
  // the update writes every example. The bias stays a float between
  // examples, exactly as when it round-tripped through the model. The
  // weight array never aliases the example features, so restrict lets the
  // gather/update loops vectorize without runtime overlap checks.
  float* SIMDC_RESTRICT const weights = model.weights().data();
  const std::size_t weight_dim = model.weights().size();
  (void)weight_dim;  // referenced only by the debug-build bounds check
  float bias = model.bias();
  const double learning_rate = config.learning_rate;
  std::vector<std::size_t> order;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    FillEpochOrder(order, examples.size(), rng);
    for (const std::size_t i : order) {
      const auto& example = examples[i];
      // Double-precision forward pass, canonical feature order.
      double score = static_cast<double>(bias);
      for (std::uint32_t idx : example.features) {
        SIMDC_DCHECK(idx < weight_dim,
                     "ServerLrOperator::Train: feature index "
                         << idx << " out of range for dim " << weight_dim);
        score += static_cast<double>(weights[idx]);
      }
      const double probability = 1.0 / (1.0 + std::exp(-score));
      const double gradient = probability - static_cast<double>(example.label);
      const double step = learning_rate * gradient;
      for (std::uint32_t idx : example.features) {
        weights[idx] = static_cast<float>(static_cast<double>(weights[idx]) - step);
      }
      bias = static_cast<float>(static_cast<double>(bias) - step);
    }
  }
  model.bias() = bias;
}

void MobileLrOperator::Train(LrModel& model,
                             std::span<const data::Example> examples,
                             const TrainConfig& config) const {
  if (examples.empty()) return;
  // An independent RNG stream: the C++ MNN runtime does not share the
  // Python stack's shuffling, so the per-epoch visit order differs. This
  // (not float rounding) is the dominant source of the small cross-venue
  // divergence Fig. 6 quantifies.
  Rng rng(SplitMix64(config.shuffle_seed ^ 0x4D4F42494C45ULL));
  float* SIMDC_RESTRICT const weights = model.weights().data();
  const std::size_t weight_dim = model.weights().size();
  (void)weight_dim;  // referenced only by the debug-build bounds check
  float bias = model.bias();
  // The double→float learning-rate conversion happened once per example;
  // it is loop-invariant, so do it once per call.
  const float learning_rate = static_cast<float>(config.learning_rate);
  std::vector<std::size_t> order;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    FillEpochOrder(order, examples.size(), rng);
    for (const std::size_t i : order) {
      const auto& example = examples[i];
      const auto& features = example.features;
      // Single-precision forward pass, reversed traversal — mirrors the
      // different accumulation order a fused mobile kernel produces.
      float score = bias;
      for (std::size_t k = features.size(); k-- > 0;) {
        SIMDC_DCHECK(features[k] < weight_dim,
                     "MobileLrOperator::Train: feature index "
                         << features[k] << " out of range for dim "
                         << weight_dim);
        score += weights[features[k]];
      }
      // expf: the mobile math library's single-precision exponential.
      const float probability = 1.0f / (1.0f + ::expf(-score));
      const float step = learning_rate * (probability - example.label);
      for (std::size_t k = features.size(); k-- > 0;) {
        weights[features[k]] -= step;
      }
      bias -= step;
    }
  }
  model.bias() = bias;
}

std::unique_ptr<TrainingOperator> MakeLrOperator(OperatorVenue venue) {
  switch (venue) {
    case OperatorVenue::kServer:
      return std::make_unique<ServerLrOperator>();
    case OperatorVenue::kMobile:
      return std::make_unique<MobileLrOperator>();
  }
  return nullptr;
}

}  // namespace simdc::ml
