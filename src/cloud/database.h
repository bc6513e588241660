// Cloud metrics database.
//
// PhoneMgr "organizes [device information] in real-time and uploads it to
// the cloud database for storage" (§IV-C). The database stores raw
// performance samples and offers the per-stage aggregation Table I
// reports (energy in mAh, duration in minutes, communication in KB), plus
// a generic named time-series facility used by the experiment harnesses.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "device/perf_sample.h"

namespace simdc::cloud {

/// Table I row: per-stage aggregates for one (task, grade/phone) group.
struct StageAggregate {
  device::ApkStage stage = device::ApkStage::kNoApk;
  /// Energy over the stage estimated from sampled current readings, mAh.
  double energy_mah = 0.0;
  /// Stage duration in minutes (span of samples tagged with the stage).
  double duration_min = 0.0;
  /// Communication during the stage in KB (bandwidth counter delta).
  double comm_kb = 0.0;
  std::size_t samples = 0;
};

/// One named scalar observation in insertion order. The per-series map
/// (QueryScalar) iterates sorted by series name — NOT recording order — so
/// the durability plane checkpoints this row log instead: replaying it
/// reproduces the database byte-for-byte, in the order it was built.
struct ScalarRow {
  std::string series;
  SimTime time = 0;
  double value = 0.0;
};

class MetricsDatabase final : public device::MetricsSink {
 public:
  void Record(const device::PerfSample& sample) override;

  std::vector<device::PerfSample> QueryTask(TaskId task) const;
  std::vector<device::PerfSample> QueryPhone(TaskId task, PhoneId phone) const;
  std::size_t sample_count() const;

  /// Aggregates one phone's samples per APK stage (Table I pipeline).
  /// Energy integrates |current| over inter-sample gaps at the sampled
  /// voltage-independent current (mAh = mA * hours).
  std::vector<StageAggregate> AggregateStages(TaskId task,
                                              PhoneId phone) const;

  /// Averages StageAggregates across all benchmarking phones of a task
  /// whose ids are in `phones` (one Table I block, e.g. all High phones).
  std::vector<StageAggregate> AverageStages(
      TaskId task, const std::vector<PhoneId>& phones) const;

  // --- Generic named scalar time series (loss curves, traffic counts) ---
  void RecordScalar(const std::string& series, SimTime time, double value);
  std::vector<std::pair<SimTime, double>> QueryScalar(
      const std::string& series) const;

  // --- Durability-plane surface ---
  std::size_t scalar_row_count() const;
  /// Scalar rows in insertion order (the deterministic replay order).
  std::vector<ScalarRow> ScalarRows() const;
  /// All perf samples in insertion order.
  std::vector<device::PerfSample> Samples() const;
  /// Recovery replay: drops current contents and rebuilds both stores from
  /// checkpointed rows, in their recorded order.
  void Restore(std::vector<device::PerfSample> samples,
               const std::vector<ScalarRow>& scalar_rows);

 private:
  mutable std::mutex mutex_;
  std::vector<device::PerfSample> samples_;
  std::map<std::string, std::vector<std::pair<SimTime, double>>> scalars_;
  /// Insertion-order log of every RecordScalar call (checkpoint source;
  /// scalars_ is the query index derived from it).
  std::vector<ScalarRow> scalar_log_;
};

}  // namespace simdc::cloud
