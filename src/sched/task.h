// Task design specifications (§III-A).
//
// A task is the platform's core operational unit: unique task_id, one
// operator flow executed uniformly by all simulated devices, repeated for
// multiple rounds; per-grade device counts (different datasets may use
// different grades and quantities); hybrid resource requests; and a
// scheduling-priority parameter consumed by the greedy Task Scheduler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "device/grade.h"

namespace simdc::sched {

enum class TaskState {
  kQueued,
  kScheduled,
  kRunning,
  kCompleted,
  kFailed,
  kCancelled,
};

constexpr const char* ToString(TaskState state) {
  switch (state) {
    case TaskState::kQueued: return "Queued";
    case TaskState::kScheduled: return "Scheduled";
    case TaskState::kRunning: return "Running";
    case TaskState::kCompleted: return "Completed";
    case TaskState::kFailed: return "Failed";
    case TaskState::kCancelled: return "Cancelled";
  }
  return "?";
}

/// One step of the operator flow ("multiple operators in a predetermined
/// sequence", §III-A).
struct OperatorStep {
  enum class Kind { kDownload, kTrain, kEvaluate, kUpload, kCustom };
  Kind kind = Kind::kTrain;
  std::string name = "train";
};

/// Default FL operator flow: download → train → upload.
inline std::vector<OperatorStep> DefaultFlOperatorFlow() {
  return {
      OperatorStep{OperatorStep::Kind::kDownload, "download_model"},
      OperatorStep{OperatorStep::Kind::kTrain, "train_local"},
      OperatorStep{OperatorStep::Kind::kUpload, "upload_update"},
  };
}

/// Per-grade simulation requirement of a task.
struct DeviceRequirement {
  device::DeviceGrade grade = device::DeviceGrade::kHigh;
  /// N_i: devices to simulate at this grade.
  std::size_t num_devices = 0;
  /// q_i: physical benchmarking phones reserved for measurement.
  std::size_t benchmarking_phones = 0;
  /// f_i: unit resource bundles requested in Logical Simulation.
  std::size_t logical_bundles = 0;
  /// m_i: computing phones requested in Device Simulation.
  std::size_t phones = 0;
};

struct TaskSpec {
  TaskId id;
  std::string name = "task";
  /// Higher runs earlier when resources suffice (§III-A).
  int priority = 0;
  std::vector<DeviceRequirement> requirements;
  /// Rounds the operator flow is repeated ("multi-round device-cloud
  /// collaborative processes").
  std::size_t rounds = 1;
  std::vector<OperatorStep> operator_flow = DefaultFlOperatorFlow();

  std::size_t TotalDevices() const {
    std::size_t n = 0;
    for (const auto& r : requirements) n += r.num_devices;
    return n;
  }
  std::size_t TotalLogicalBundles() const {
    std::size_t n = 0;
    for (const auto& r : requirements) n += r.logical_bundles;
    return n;
  }
  std::size_t TotalPhones() const {
    std::size_t n = 0;
    for (const auto& r : requirements) {
      n += r.phones + r.benchmarking_phones;
    }
    return n;
  }
};

}  // namespace simdc::sched
