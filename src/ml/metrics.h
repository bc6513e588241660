// Evaluation metrics for the CTR task: accuracy and log-loss.
#pragma once

#include <span>

#include "data/example.h"
#include "ml/lr_model.h"

namespace simdc::ml {

/// Fraction of examples where thresholded prediction matches the label.
double Accuracy(const LrModel& model, std::span<const data::Example> examples,
                double threshold = 0.5);

/// Mean binary cross-entropy (clamped probabilities).
double LogLoss(const LrModel& model, std::span<const data::Example> examples);

struct EvalReport {
  double accuracy = 0.0;
  double logloss = 0.0;
};

/// Computes both metrics from a single scoring pass over `examples`
/// (identical results to calling Accuracy/LogLoss individually, at half
/// the forward-pass cost).
EvalReport Evaluate(const LrModel& model,
                    std::span<const data::Example> examples);

}  // namespace simdc::ml
