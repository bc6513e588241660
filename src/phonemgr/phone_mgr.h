// PhoneMgr — management of the physical devices cluster.
//
// §III-B / §IV-C: PhoneMgr "is responsible for selecting appropriate real
// phone devices to participate in the simulation based on task
// requirements. It manages task submission, status monitoring, termination
// operations, and performance measurement." The cluster distinguishes
// Computing Devices (simulate device computations, possibly several
// sequentially per phone) from Benchmarking Devices (train one device's
// workload while being sampled for power/CPU/memory/bandwidth; "not reused
// as computation units").
//
// All measurement goes through the simulated ADB shell + text parsers —
// the same pipeline a real deployment uses — and samples are pushed to a
// MetricsSink (the cloud database).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adb/adb_server.h"
#include "common/error.h"
#include "common/ids.h"
#include "device/fleet.h"
#include "device/fleet_store.h"
#include "device/grade.h"
#include "device/perf_sample.h"
#include "device/phone.h"
#include "sim/event_loop.h"

namespace simdc::device {

/// A device-simulation job for one grade (one slice of a platform task).
struct PhoneJob {
  TaskId task;
  DeviceGrade grade = DeviceGrade::kHigh;
  /// Simulated devices to run on computing phones (N_i - q_i - x_i).
  std::size_t devices_to_simulate = 0;
  /// Computing phones to spread them over (m_i).
  std::size_t computing_phones = 0;
  /// Benchmarking phones (q_i), each training one device's workload under
  /// measurement; not reused for bulk computation.
  std::size_t benchmarking_phones = 0;
  /// Idle time before APK launch (Table I stage 1: "clearing background
  /// tasks without running the APK"); sampling covers it.
  double pre_idle_s = 0.0;
  /// Multi-round operator flow repetition (paper §III-A).
  std::size_t rounds = 1;
  /// β_i: seconds per device-batch of training on a phone.
  double round_duration_s = 2.0;
  /// λ_i: APK / compute-framework startup seconds.
  double startup_s = 15.0;
  /// Wait between rounds (global aggregation latency seen by the device).
  double aggregation_wait_s = 10.0;
  /// Per-round communication volumes (bytes).
  std::int64_t download_bytes = 16 * 1024;
  std::int64_t upload_bytes = 17 * 1024;
  /// Sampling period for benchmarking phones.
  SimDuration sample_period = Seconds(15.0);
  /// Probability that the training APK crashes during any given round
  /// (§II-B lists application crashes among real edge-device behaviors).
  /// A crashed round produces no upload and is retried after recovery.
  double crash_probability = 0.0;
  /// Seconds to detect a crash and relaunch the compute framework.
  double crash_recovery_s = 20.0;
  /// Attempts per round before giving up on it (guards pathological p≈1).
  std::size_t max_round_attempts = 5;
  /// Seed for crash draws (split per phone).
  std::uint64_t seed = 0;
  /// Fires when a phone finishes one round (hook for DeviceFlow messages).
  std::function<void(PhoneId, std::size_t round, SimTime when)> on_round_complete;
  /// Fires once when the whole job is done.
  std::function<void(TaskId, SimTime when)> on_complete;
};

/// Handle describing a submitted job's layout and timing.
struct PhoneJobHandle {
  TaskId task;
  std::vector<PhoneId> computing;
  std::vector<PhoneId> benchmarking;
  SimTime finish_time = 0;
  /// APK crashes injected across all phones of the job.
  std::size_t crashes = 0;
  /// Rounds abandoned after max_round_attempts consecutive crashes.
  std::size_t abandoned_rounds = 0;
};

class PhoneMgr {
 public:
  /// `loop` drives stage schedules and sampling; its clock is shared by
  /// all registered phones.
  explicit PhoneMgr(sim::EventLoop& loop) : loop_(loop) {}

  /// Registers a phone in the cluster. Returns its id.
  PhoneId RegisterPhone(const PhoneSpec& spec);

  /// Registers a whole fleet (see device/fleet.h).
  void RegisterFleet(const std::vector<PhoneSpec>& fleet);

  /// Removes a phone from the cluster (dynamic scale-down, §III-B).
  /// Fails when the phone is running a task or unknown. O(log n):
  /// tombstones the phone's slot in the SoA store for later reuse instead
  /// of shifting the arrays and rebuilding every index.
  Status UnregisterPhone(PhoneId id);

  std::size_t TotalPhones() const { return store_.live_count(); }
  std::size_t CountIdle(DeviceGrade grade) const {
    return store_.CountIdle(GradeIndex(grade));
  }
  std::size_t CountTotal(DeviceGrade grade) const {
    return store_.CountTotal(GradeIndex(grade));
  }

  Phone* FindPhone(PhoneId id);
  const Phone* FindPhone(PhoneId id) const;
  adb::AdbServer* FindAdb(PhoneId id);

  /// Lifetime counters for one phone (jobs, completed rounds, crashes,
  /// perf samples); nullopt when the id is unknown. Counters reset when a
  /// phone is unregistered and its slot re-registered.
  std::optional<PhonePerfCounters> CountersFor(PhoneId id) const;

  /// Submits a job: selects phones, installs run plans, arms benchmarking
  /// samplers, schedules completion callbacks. Fails when the cluster has
  /// too few idle phones of the grade.
  Result<PhoneJobHandle> SubmitJob(const PhoneJob& job);

  /// Terminates a task early: clears plans and frees its phones.
  Status TerminateTask(TaskId task);

  void set_metrics_sink(MetricsSink* sink) { sink_ = sink; }

  /// Predicted makespan of a job per the allocation model:
  /// ceil(devices/m) * β + λ (paper §IV-B), plus aggregation waits.
  static double PredictJobSeconds(const PhoneJob& job);

 private:
  /// Locality slot inside the per-grade idle free-lists: local phones are
  /// preferred over remote MSP devices (same order as the historical scan).
  static std::size_t LocalityIndex(const PhoneSpec& spec) {
    return spec.remote_msp ? 1 : 0;
  }

  void InstallPlans(const PhoneJob& job,
                    const std::vector<std::size_t>& computing,
                    const std::vector<std::size_t>& benchmarking,
                    PhoneJobHandle& handle);
  void ArmSampler(std::size_t slot, const PhoneJob& job);
  /// One self-rescheduling sampler tick: measures through the ADB pipeline,
  /// then re-arms itself `period` later while `end` has not passed.
  void RunSampler(adb::AdbServer* shell, Phone* phone, TaskId task,
                  PhoneId phone_id, SimDuration period, SimTime end);
  void ReleasePhone(PhoneId id);

  static constexpr std::size_t npos = FleetStore::npos;

  sim::EventLoop& loop_;
  /// Scheduling-hot per-phone state (grade, locality, busy bit, owner,
  /// counters) as struct-of-arrays; the authority for slot liveness, the
  /// PhoneId → slot map and the idle free-lists.
  FleetStore store_;
  /// Cold per-phone objects, slot-aligned with store_ (null at tombstoned
  /// slots). Heap indirection keeps Phone/AdbServer addresses stable
  /// across registrations, which the sampler closures rely on.
  std::vector<std::unique_ptr<Phone>> phone_slots_;
  std::vector<std::unique_ptr<adb::AdbServer>> adb_slots_;
  MetricsSink* sink_ = nullptr;
  int next_pid_ = 4200;
};

}  // namespace simdc::device
