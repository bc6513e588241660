// Layer probes: each layer's public entry point called directly on the
// workload's own data and shapes, timed outside the engine.
#pragma once

#include <string>
#include <vector>

#include "experiment.h"
#include "repetition.h"

namespace simdc::bench {

struct Probe {
  std::string name;  // per-layer metric name
  const char* unit;  // "us" or "ms"
  double value = 0;  // median host time per call
  /// Exact calls per round in the run (from its counters), and whether the
  /// engine spreads them over the worker pool.
  double calls_per_round = 0;
  bool parallel = false;
  /// The traced span this probe's time shows up in.
  const char* explains = "";
};

/// Times every probe on `experiment`'s first task. `run` is a finished run
/// of the same experiment (its final model and counters size the probes);
/// `scratch_dir` holds the probes' files and is removed afterwards.
/// `quick` cuts every probe to a few samples (smoke runs).
std::vector<Probe> RunProbes(const Experiment& experiment, const Outcome& run,
                             const std::string& scratch_dir, bool quick);

}  // namespace simdc::bench
