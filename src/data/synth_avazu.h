// Synthetic Avazu-like dataset generator.
//
// Substitution for the proprietary-scale Avazu subset used in the paper
// (§VI-A: ~2M records over 100,000 devices for training, 1,000 held-out
// devices for test). The generator produces per-device shards with:
//   * one active hashed feature per categorical field (sparse LR input),
//   * per-device field preferences (a device re-visits its own sites/apps),
//   * a ground-truth sparse logistic model + per-device bias, so the
//     learning task is realizable and per-device CTR is controllable,
//   * three label-distribution modes driving the paper's scenarios:
//     IID, natural heterogeneity, and the polarized 70%/30% positive/
//     negative-heavy split of Fig. 11(b).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/example.h"

namespace simdc::data {

/// How labels (and therefore per-device CTR) are distributed across devices.
enum class LabelDistribution {
  /// Every device draws from the same global CTR (Fig. 11a).
  kIid,
  /// Per-device CTR from a heterogeneous prior (default; Figs. 6, 9).
  kNatural,
  /// A fraction of devices is positive-heavy, the rest negative-heavy
  /// (Fig. 11b: 70% high-positive, 30% high-negative).
  kPolarized,
};

/// Global CTR target: Avazu's overall positive rate is ~0.17.
inline constexpr double kGlobalCtr = 0.17;
/// kNatural: stddev of per-device CTR on the logit scale.
inline constexpr double kNaturalLogitStddev = 0.8;

struct SynthConfig {
  std::size_t num_devices = 100;
  /// Mean records per device; actual counts are log-normal around this.
  double records_per_device_mean = 20.0;
  /// Held-out devices whose records form the global test set (paper: 1000
  /// of 100,000; scaled proportionally here).
  std::size_t num_test_devices = 10;
  std::uint32_t hash_dim = 1u << 16;
  LabelDistribution distribution = LabelDistribution::kNatural;
  /// kPolarized parameters (Fig. 11b).
  double polarized_positive_fraction = 0.7;
  double positive_heavy_ctr = 0.75;
  double negative_heavy_ctr = 0.05;
  std::uint64_t seed = 42;
};

/// Generates a federated dataset per the config. Deterministic in `seed`.
FederatedDataset GenerateSyntheticAvazu(const SynthConfig& config);

/// Re-partitions all examples IID across the same number of devices
/// (keeps test set); used to build matched IID/non-IID pairs.
FederatedDataset RepartitionIid(const FederatedDataset& dataset,
                                std::uint64_t seed);

}  // namespace simdc::data
