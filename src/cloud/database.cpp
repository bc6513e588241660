#include "cloud/database.h"

#include <algorithm>
#include <cmath>

namespace simdc::cloud {

void MetricsDatabase::Record(const device::PerfSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(sample);
}

std::vector<device::PerfSample> MetricsDatabase::QueryTask(TaskId task) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<device::PerfSample> out;
  for (const auto& s : samples_) {
    if (s.task == task) out.push_back(s);
  }
  return out;
}

std::vector<device::PerfSample> MetricsDatabase::QueryPhone(
    TaskId task, PhoneId phone) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<device::PerfSample> out;
  for (const auto& s : samples_) {
    if (s.task == task && s.phone == phone) out.push_back(s);
  }
  return out;
}

std::size_t MetricsDatabase::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

std::vector<StageAggregate> MetricsDatabase::AggregateStages(
    TaskId task, PhoneId phone) const {
  auto samples = QueryPhone(task, phone);
  std::sort(samples.begin(), samples.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });

  std::vector<StageAggregate> out;
  for (const device::ApkStage stage : device::kAllStages) {
    StageAggregate agg;
    agg.stage = stage;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (samples[i].stage != stage) continue;
      ++agg.samples;
      // Trailing-rectangle integration: the interval from sample i to the
      // next sample belongs to sample i's stage. This also attributes the
      // bandwidth delta across a stage boundary to the stage that produced
      // the traffic (e.g. a round's final upload counts as Training even
      // when the next sample already sees Post-training).
      double gap_s = 0.0;
      double comm_bytes = 0.0;
      if (i + 1 < samples.size()) {
        gap_s = ToSeconds(samples[i + 1].time - samples[i].time);
        comm_bytes = static_cast<double>(samples[i + 1].bandwidth_bytes -
                                         samples[i].bandwidth_bytes);
      } else if (i > 0) {
        gap_s = ToSeconds(samples[i].time - samples[i - 1].time);
      }
      const double current_ma =
          std::abs(static_cast<double>(samples[i].current_ua)) / 1000.0;
      agg.energy_mah += current_ma * gap_s / 3600.0;
      agg.duration_min += gap_s / 60.0;
      agg.comm_kb += std::max(0.0, comm_bytes) / 1024.0;
    }
    if (agg.samples > 0) out.push_back(agg);
  }
  return out;
}

std::vector<StageAggregate> MetricsDatabase::AverageStages(
    TaskId task, const std::vector<PhoneId>& phones) const {
  std::vector<StageAggregate> totals;
  std::size_t contributing = 0;
  for (const PhoneId phone : phones) {
    const auto stages = AggregateStages(task, phone);
    if (stages.empty()) continue;
    ++contributing;
    for (const auto& agg : stages) {
      auto it = std::find_if(totals.begin(), totals.end(), [&](const auto& t) {
        return t.stage == agg.stage;
      });
      if (it == totals.end()) {
        totals.push_back(agg);
      } else {
        it->energy_mah += agg.energy_mah;
        it->duration_min += agg.duration_min;
        it->comm_kb += agg.comm_kb;
        it->samples += agg.samples;
      }
    }
  }
  if (contributing > 0) {
    const auto n = static_cast<double>(contributing);
    for (auto& agg : totals) {
      agg.energy_mah /= n;
      agg.duration_min /= n;
      agg.comm_kb /= n;
    }
  }
  std::sort(totals.begin(), totals.end(), [](const auto& a, const auto& b) {
    return static_cast<int>(a.stage) < static_cast<int>(b.stage);
  });
  return totals;
}

void MetricsDatabase::RecordScalar(const std::string& series, SimTime time,
                                   double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  scalars_[series].emplace_back(time, value);
  scalar_log_.push_back({series, time, value});
}

std::size_t MetricsDatabase::scalar_row_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scalar_log_.size();
}

std::vector<ScalarRow> MetricsDatabase::ScalarRows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scalar_log_;
}

std::vector<device::PerfSample> MetricsDatabase::Samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

void MetricsDatabase::Restore(std::vector<device::PerfSample> samples,
                              const std::vector<ScalarRow>& scalar_rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_ = std::move(samples);
  scalars_.clear();
  scalar_log_ = scalar_rows;
  for (const ScalarRow& row : scalar_log_) {
    scalars_[row.series].emplace_back(row.time, row.value);
  }
}

std::vector<std::pair<SimTime, double>> MetricsDatabase::QueryScalar(
    const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = scalars_.find(series);
  return it == scalars_.end()
             ? std::vector<std::pair<SimTime, double>>{}
             : it->second;
}

}  // namespace simdc::cloud
