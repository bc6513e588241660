#include "ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace simdc::ml {

double Accuracy(const LrModel& model, std::span<const data::Example> examples,
                double threshold) {
  if (examples.empty()) return 0.0;
  std::size_t correct = 0;
  for (const auto& example : examples) {
    const bool predicted = model.Predict(example) >= threshold;
    const bool actual = example.label > 0.5f;
    correct += predicted == actual ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

double LogLoss(const LrModel& model,
               std::span<const data::Example> examples) {
  if (examples.empty()) return 0.0;
  double total = 0.0;
  for (const auto& example : examples) {
    const double p = std::clamp(model.Predict(example), 1e-12, 1.0 - 1e-12);
    total += example.label > 0.5f ? -std::log(p) : -std::log(1.0 - p);
  }
  return total / static_cast<double>(examples.size());
}

EvalReport Evaluate(const LrModel& model,
                    std::span<const data::Example> examples) {
  // Hot path (called twice per FL round): score every example exactly once
  // and derive both metrics from that single forward pass, instead of the
  // two independent passes Accuracy/LogLoss would make.
  EvalReport report;
  if (examples.empty()) return report;

  std::size_t correct = 0;
  double total_logloss = 0.0;
  for (const auto& example : examples) {
    const double probability = 1.0 / (1.0 + std::exp(-model.Score(example)));
    const bool actual = example.label > 0.5f;
    correct += (probability >= 0.5) == actual ? 1 : 0;
    const double p = std::clamp(probability, 1e-12, 1.0 - 1e-12);
    total_logloss += actual ? -std::log(p) : -std::log(1.0 - p);
  }
  const auto n = static_cast<double>(examples.size());
  report.accuracy = static_cast<double>(correct) / n;
  report.logloss = total_logloss / n;
  return report;
}

}  // namespace simdc::ml
