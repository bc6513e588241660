// Local-training operators.
//
// §VI-B2 of the paper: "the training operators used in logical simulation
// are based on the PyMNN architecture, while device simulation employs
// operators from the C++ MNN architecture used in actual business SDKs.
// ... disparities in hardware architecture and compilation optimizations
// ... can lead to variations when executing the same operator across
// platforms." Fig. 6 verifies these variations keep ACC differences below
// 0.5%. We reproduce the situation with two mathematically-equivalent but
// numerically-distinct SGD kernels:
//   * ServerLrOperator  — double-precision accumulation, canonical feature
//     order (stands in for PyMNN on HPC servers);
//   * MobileLrOperator  — single-precision accumulation, reversed feature
//     traversal and fused update (stands in for C++ MNN on phones).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "data/example.h"
#include "ml/lr_model.h"

namespace simdc::ml {

/// Hyper-parameters for one local-training call (paper defaults).
struct TrainConfig {
  double learning_rate = 1e-3;
  std::size_t epochs = 10;
  /// Seeds the shuffle of the examples before every epoch, which keeps
  /// runs reproducible.
  std::uint64_t shuffle_seed = 0;
};

/// Abstract local-training operator (one step of the "operator flow").
/// Operators are stateless: one instance may train on many threads at once.
class TrainingOperator {
 public:
  virtual ~TrainingOperator() = default;

  virtual std::string_view name() const = 0;

  /// Trains `model` in place on `examples` for config.epochs passes of SGD.
  virtual void Train(LrModel& model, std::span<const data::Example> examples,
                     const TrainConfig& config) const = 0;
};

/// Double-precision server kernel (PyMNN stand-in).
class ServerLrOperator final : public TrainingOperator {
 public:
  std::string_view name() const override { return "lr_sgd/server"; }
  void Train(LrModel& model, std::span<const data::Example> examples,
             const TrainConfig& config) const override;
};

/// Single-precision mobile kernel (C++ MNN stand-in).
class MobileLrOperator final : public TrainingOperator {
 public:
  std::string_view name() const override { return "lr_sgd/mobile"; }
  void Train(LrModel& model, std::span<const data::Example> examples,
             const TrainConfig& config) const override;
};

/// Shared factory: the platform selects the operator per execution venue.
enum class OperatorVenue { kServer, kMobile };
std::unique_ptr<TrainingOperator> MakeLrOperator(OperatorVenue venue);

}  // namespace simdc::ml
