// Device behavior model: availability, battery, link quality, churn.
//
// Real fleets are not a hash draw (§II-B): phones follow diurnal usage
// cycles, run out of battery and charge back up, sit behind flaky radios,
// and join or leave mid-experiment. BehaviorModel composes those effects
// into per-device state that is a PURE FUNCTION of (seed, device key,
// time) — no mutable per-query state — so any plane that consults it
// (participant selection, flow::Dispatcher's link hooks, PhoneMgr churn
// drivers) observes the same fleet at every shard width, parallelism and
// delivery mode. That purity is what lets fault behavior itself be gated
// as a bit-identity invariant instead of flaky test noise.
//
// Two sources of truth compose:
//   * the synthetic plane — seed-deterministic diurnal duty cycle, battery
//     sawtooth and churn schedule derived via common::DeterministicHash;
//   * trace replay — per-device online/offline timelines in the Fig. 5
//     usage-trace format, which override the synthetic curve for the
//     devices they cover.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/error.h"

namespace simdc::device {

struct BehaviorConfig {
  /// Master switch; a disabled model reports every device available with a
  /// perfect link, reproducing pre-fault-plane behavior exactly.
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Mean fraction of the fleet available at any instant.
  double mean_availability = 0.85;
  /// Diurnal swing around the mean (0 = flat availability). The duty
  /// cycle is mean + amplitude * sin(2π(t/period + phase)).
  double diurnal_amplitude = 0.0;
  SimDuration diurnal_period = Seconds(86400.0);
  /// Phase offset as a fraction of the period in [0, 1).
  double diurnal_phase = 0.0;
  /// Fraction of devices that permanently leave (churn out) somewhere in
  /// [0, churn_horizon); hash-derived per device.
  double churn_rate = 0.0;
  SimDuration churn_horizon = Seconds(3600.0);
  /// Fraction of leavers that rejoin after churn_downtime.
  double rejoin_fraction = 0.0;
  SimDuration churn_downtime = Seconds(600.0);
  /// Devices below this battery level are unavailable unless charging
  /// (0 = battery never gates availability).
  double min_battery = 0.0;
  /// Full discharge/charge cycle length; per-device phase is hash-derived.
  SimDuration battery_period = Seconds(7200.0);
  /// Baseline transient upload-failure probability (flow::LinkPolicy
  /// override hook), plus a diurnal swing that peaks at the availability
  /// trough (congested evenings <-> flaky links).
  double link_base_failure = 0.0;
  double link_diurnal_swing = 0.0;
};

/// One edge in a device's usage-trace timeline (Fig. 5 format): from
/// `time` on, the device is online or offline — until its next edge.
struct UsageTraceEvent {
  std::uint64_t device_key = 0;
  SimTime time = 0;
  bool online = true;
};

/// Parses the textual usage-trace format: one `<time_s> <device> <state>`
/// line per edge, where state is `online`, `offline`, or a numeric ApkStage
/// (stage 1 — no APK running — maps to offline, stages 2–5 to online; the
/// stage timelines bench_fig5_usage_trace samples are directly replayable).
/// `#` comments and blank lines are skipped; malformed lines, and times
/// outside [0, kMaxSeconds], are ParseErrors naming the line.
Result<std::vector<UsageTraceEvent>> ParseUsageTrace(std::string_view text);

/// A join/leave edge in the synthetic churn schedule.
struct ChurnEvent {
  std::uint64_t device_key = 0;
  SimTime time = 0;
  bool join = false;  ///< false = leaves the fleet, true = rejoins
};

class BehaviorModel {
 public:
  explicit BehaviorModel(BehaviorConfig config);

  const BehaviorConfig& config() const { return config_; }

  /// Loads a usage trace; traced devices' availability follows their
  /// timeline instead of the synthetic curve (before a device's first
  /// edge it is online). Immutable once loaded — call during setup only;
  /// queries afterwards are const and thread-safe.
  void LoadTrace(std::vector<UsageTraceEvent> events);
  bool HasTrace(std::uint64_t device_key) const;

  /// Whether the device can upload / participate at `t` — the AND of the
  /// churn schedule, the diurnal duty cycle and the battery gate (or the
  /// trace timeline for traced devices). Pure and thread-safe.
  bool Available(std::uint64_t device_key, SimTime t) const;

  /// Battery level in [0, 1]: a per-device-phased sawtooth that discharges
  /// over 3/4 of battery_period and charges over the last 1/4.
  double BatteryLevel(std::uint64_t device_key, SimTime t) const;
  bool Charging(std::uint64_t device_key, SimTime t) const;

  /// Transient upload-failure probability at `t` (flow::Dispatcher's
  /// link-probability hook), in [0, 0.95].
  double LinkFailureProbability(std::uint64_t device_key, SimTime t) const;

  /// Fleet-level duty cycle (fraction of untraced devices the diurnal
  /// curve admits) at `t`, clamped to [0, 1].
  double DutyCycle(SimTime t) const;

  /// Churn schedule of one device: leave/rejoin instants, or negative
  /// times when the device never churns. Hash-derived, stable.
  SimTime LeaveTime(std::uint64_t device_key) const;
  SimTime RejoinTime(std::uint64_t device_key) const;

  /// All join/leave edges of device keys [0, n) inside [t0, t1), sorted by
  /// (time, key) — the driver feed for PhoneMgr register/unregister churn.
  std::vector<ChurnEvent> ChurnEventsBetween(std::uint64_t n, SimTime t0,
                                             SimTime t1) const;

 private:
  bool ChurnedOut(std::uint64_t device_key, SimTime t) const;
  bool TracedAvailable(std::uint64_t device_key, SimTime t) const;

  BehaviorConfig config_;
  /// Per-device trace timelines, each sorted by time (built in LoadTrace).
  std::unordered_map<std::uint64_t, std::vector<UsageTraceEvent>> traces_;
};

}  // namespace simdc::device
