// Golden digests: one 64-bit fingerprint per pinned configuration.
//
// A digest is a det_hash fold over everything a run reports — FlRunResult
// bits (round metrics, final weights and bias), the merged DispatchStats
// (counters, the batch log and its merge keys) and the aggregation
// counters. tests/golden/digests.txt holds the values captured while the
// per-message delivery, legacy decode and legacy aggregate planes still
// existed and agreed bit for bit with the batched/decoded/partial-sum
// path; the surviving path must keep producing them. A mismatch prints the
// new digest in the same hex form the file uses.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "cloud/aggregation.h"
#include "common/det_hash.h"
#include "core/fl_engine.h"
#include "flow/device_flow.h"

#ifndef SIMDC_GOLDEN_DIR
#error "SIMDC_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace simdc::golden {

/// Chained HashCombine over every value fed in, in order.
class Digest {
 public:
  template <typename T>
    requires std::is_integral_v<T>
  void Add(T value) {
    hash_ = HashCombine(hash_, static_cast<std::uint64_t>(value));
  }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void Add(float value) { Add(std::bit_cast<std::uint32_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0x53494d44474f4c44ULL;
};

inline void AddRun(Digest& d, const core::FlRunResult& run) {
  d.Add(run.rounds.size());
  for (const core::RoundMetrics& m : run.rounds) {
    d.Add(m.round);
    d.Add(m.time);
    d.Add(m.clients);
    d.Add(m.samples);
    d.Add(m.test_accuracy);
    d.Add(m.test_logloss);
    d.Add(m.train_accuracy);
    d.Add(m.train_logloss);
  }
  d.Add(run.messages_emitted);
  d.Add(run.messages_dropped);
  d.Add(run.skipped_unavailable);
  d.Add(run.rounds_degraded);
  d.Add(run.rounds_extended);
  d.Add(run.rounds_aborted);
  d.Add(run.model_dim);
  d.Add(run.final_weights.size());
  for (const float w : run.final_weights) d.Add(w);
  d.Add(run.final_bias);
}

inline void AddDispatch(Digest& d, const flow::DispatchStats& stats) {
  d.Add(stats.received);
  d.Add(stats.sent);
  d.Add(stats.dropped);
  d.Add(stats.retries);
  d.Add(stats.retry_successes);
  d.Add(stats.deadline_drops);
  d.Add(stats.churn_losses);
  d.Add(stats.batches_truncated);
  d.Add(stats.batches.size());
  for (const auto& [time, count] : stats.batches) {
    d.Add(time);
    d.Add(count);
  }
  d.Add(stats.batch_keys.size());
  for (const std::uint64_t key : stats.batch_keys) d.Add(key);
}

inline void AddService(Digest& d, const cloud::AggregationService& service) {
  d.Add(service.rounds_completed());
  d.Add(service.messages_received());
  d.Add(service.decode_failures());
  d.Add(service.stale_rejections());
  d.Add(service.store_errors());
  d.Add(service.deadline_commits());
  d.Add(service.round_extensions());
  d.Add(service.aborted_rounds());
}

/// Digest of one finished engine run.
inline std::uint64_t RunDigest(const core::FlEngine& engine,
                               const core::FlRunResult& result) {
  Digest d;
  AddRun(d, result);
  AddDispatch(d, engine.dispatch_stats());
  AddService(d, engine.aggregation());
  return d.value();
}

inline std::string Hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

/// The digest recorded under `name` in tests/golden/digests.txt (lines of
/// "<name> <hex digest>"; '#' starts a comment line).
inline std::string Golden(const std::string& name) {
  std::ifstream in(SIMDC_GOLDEN_DIR "/digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string key;
    std::string hex;
    if (row >> key >> hex && key == name) return hex;
  }
  ADD_FAILURE() << "no golden digest named '" << name << "'";
  return {};
}

/// Asserts `digest` equals the golden value recorded under `name`.
inline void ExpectGolden(const std::string& name, std::uint64_t digest,
                         const std::string& label = {}) {
  EXPECT_EQ(Hex(digest), Golden(name)) << name << ' ' << label;
}

}  // namespace simdc::golden
