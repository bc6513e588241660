// Simulated Android phone.
//
// Substitution for the physical mobile-phone cluster (paper §IV-A/§IV-C):
// a state machine over the five APK lifecycle stages of Table I whose
// observable surface matches what ADB exposes on a real handset —
// battery current/voltage sysfs nodes, a process table, per-process CPU
// and PSS memory, and wlan interface byte counters. PhoneMgr never touches
// this object directly for measurements; it goes through the simulated ADB
// shell and parses text, exactly like the real pipeline.
//
// The phone is *schedule-driven*: a RunPlan fixes the stage boundaries and
// per-round communication volumes, and every query is a pure function of
// (plan, query time, seed). This makes traces deterministic and lets the
// discrete-event loop sample at any frequency without simulating every
// microsecond.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/rng.h"
#include "device/grade.h"
#include "device/power_model.h"

namespace simdc::device {

/// Static description of one handset.
struct PhoneSpec {
  PhoneId id;
  DeviceGrade grade = DeviceGrade::kHigh;
  std::string model = "SDC-A1";
  double memory_gb = 12.0;
  double cpu_freq_ghz = 2.8;
  bool has_npu = false;
  /// True for remote phones provided by the Mobile Service Platform.
  bool remote_msp = false;
  std::uint64_t seed = 0;
};

/// One training round executed on the phone.
struct RoundWindow {
  SimTime train_start = 0;
  SimTime train_end = 0;
  /// Bytes pulled from cloud storage at round start (model + data).
  std::int64_t download_bytes = 0;
  /// Bytes pushed at round end (model update + message).
  std::int64_t upload_bytes = 0;
};

/// Process name of the training APK that every run plan launches: what
/// `pgrep -f`, `top` and `dumpsys meminfo` report and match.
inline constexpr char kTrainingProcess[] = "com.simdc.fltrain";

/// A complete APK run: launch → rounds (training / waiting) → closure.
struct RunPlan {
  SimTime apk_launch_start = 0;
  /// Rounds in increasing time order; gaps between rounds are
  /// "post-training" (device waiting for global aggregation, Fig. 5).
  std::vector<RoundWindow> rounds;
  SimTime closure_start = 0;
  SimTime closure_end = 0;
  int pid = 0;  // assigned by PhoneMgr / test
};

class Phone {
 public:
  Phone(PhoneSpec spec, const ManualClock& clock);

  const PhoneSpec& spec() const { return spec_; }
  const ManualClock& clock() const { return clock_; }

  /// Installs a run plan. A phone may hold several non-overlapping plans
  /// (e.g. the original run plus a post-crash recovery run); plans must be
  /// appended in increasing time order.
  /// Precondition: stage boundaries are monotonically ordered and the plan
  /// starts at or after the previous plan's closure.
  void ScheduleRun(RunPlan plan);
  void ClearPlan() { plans_.clear(); }
  /// Most recently installed plan (nullptr when none).
  const RunPlan* plan() const {
    return plans_.empty() ? nullptr : &plans_.back();
  }
  /// Plan whose [launch, closure) window covers `t` (nullptr when idle).
  const RunPlan* PlanCovering(SimTime t) const;
  std::size_t plan_count() const { return plans_.size(); }

  /// Lifecycle stage at absolute sim time `t`.
  ApkStage StageAt(SimTime t) const;
  ApkStage CurrentStage() const { return StageAt(clock_.Now()); }

  /// Process lookup (pgrep): pid while the APK is alive at `t`.
  std::optional<int> PidOf(std::string_view process_name, SimTime t) const;

  // --- Instantaneous sensors (deterministic noise keyed by query time) ---

  /// Battery current in microamps (negative = discharging).
  std::int64_t CurrentNowMicroAmps(SimTime t) const;
  /// Battery voltage in microvolts.
  std::int64_t VoltageNowMicroVolts(SimTime t) const;
  /// Per-process CPU usage percent as `top` would report.
  double CpuPercentAt(SimTime t) const;
  /// Per-process PSS memory in KB as `dumpsys meminfo` would report.
  std::int64_t MemPssKbAt(SimTime t) const;

  struct WlanCounters {
    std::int64_t rx_bytes = 0;
    std::int64_t tx_bytes = 0;
  };
  /// Cumulative wlan0 byte counters at `t` (monotone non-decreasing).
  WlanCounters WlanAt(SimTime t) const;

  // --- Ground-truth integrals (for calibration and Table I verification;
  //     a real phone cannot report these, only the sampled estimates) ---

  /// Exact energy consumed in [t0, t1) in mAh, integrating stage means.
  double EnergyConsumedMah(SimTime t0, SimTime t1) const;
  /// Exact bytes communicated in [t0, t1).
  std::int64_t CommBytesBetween(SimTime t0, SimTime t1) const;

 private:
  Rng NoiseAt(SimTime t, std::uint64_t salt) const {
    return Rng(spec_.seed).Split(static_cast<std::uint64_t>(t) ^ salt);
  }
  /// Which round of `plan` (if any) covers `t`.
  static const RoundWindow* RoundCovering(const RunPlan& plan, SimTime t);
  ApkStage StageWithin(const RunPlan& plan, SimTime t) const;

  PhoneSpec spec_;
  const ManualClock& clock_;
  PowerModel power_;
  std::vector<RunPlan> plans_;  // non-overlapping, time-ordered
};

}  // namespace simdc::device
