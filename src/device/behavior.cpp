#include "device/behavior.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/det_hash.h"
#include "common/string_util.h"

namespace simdc::device {
namespace {

// Per-purpose hash salts so the per-device draws (availability threshold,
// churn membership, leave instant, rejoin membership, battery phase) are
// independent streams of one seed.
constexpr std::uint64_t kAvailSalt = HashString("behavior-availability");
constexpr std::uint64_t kChurnSalt = HashString("behavior-churn");
constexpr std::uint64_t kLeaveSalt = HashString("behavior-leave");
constexpr std::uint64_t kRejoinSalt = HashString("behavior-rejoin");
constexpr std::uint64_t kBatterySalt = HashString("behavior-battery");

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Fractional position in a cycle of `period` with a phase offset in
/// cycles; result in [0, 1).
double CyclePosition(SimTime t, SimDuration period, double phase) {
  if (period <= 0) return 0.0;
  const double x =
      ToSeconds(t) / ToSeconds(period) + phase;
  return x - std::floor(x);
}

}  // namespace

Result<std::vector<UsageTraceEvent>> ParseUsageTrace(std::string_view text) {
  std::vector<UsageTraceEvent> events;
  std::size_t line_number = 0;
  for (const auto& raw_line : SplitLines(text)) {
    ++line_number;
    std::string line = raw_line;
    if (const auto pos = line.find('#'); pos != std::string::npos) {
      line.erase(pos);
    }
    if (TrimWhitespace(line).empty()) continue;

    std::istringstream fields(line);
    double time_s = 0.0;
    std::uint64_t device = 0;
    std::string state;
    if (!(fields >> time_s >> device >> state)) {
      return ParseError(StrFormat(
          "usage trace line %zu: expected '<time_s> <device> <state>', got "
          "'%s'",
          line_number, std::string(TrimWhitespace(line)).c_str()));
    }
    // Checked before Seconds() converts it: a time past the clock's range
    // does not fit SimTime.
    if (!(time_s >= 0.0 && time_s <= kMaxSeconds)) {
      return ParseError(StrFormat(
          "usage trace line %zu: time must lie in [0, 1e12] s, got '%s'",
          line_number, std::string(TrimWhitespace(line)).c_str()));
    }
    UsageTraceEvent event;
    event.device_key = device;
    event.time = Seconds(time_s);
    if (state == "online") {
      event.online = true;
    } else if (state == "offline") {
      event.online = false;
    } else if (const auto stage = ParseInt(state);
               stage && *stage >= 1 && *stage <= 5) {
      // ApkStage timelines: stage 1 (no APK running) is offline, every
      // running stage (2-5) is online.
      event.online = *stage > 1;
    } else {
      return ParseError(StrFormat(
          "usage trace line %zu: state must be online, offline or an "
          "ApkStage 1-5, got '%s'",
          line_number, state.c_str()));
    }
    events.push_back(event);
  }
  return events;
}

BehaviorModel::BehaviorModel(BehaviorConfig config)
    : config_(config) {}

void BehaviorModel::LoadTrace(std::vector<UsageTraceEvent> events) {
  for (UsageTraceEvent& event : events) {
    traces_[event.device_key].push_back(event);
  }
  for (auto& [key, timeline] : traces_) {
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const UsageTraceEvent& a, const UsageTraceEvent& b) {
                       return a.time < b.time;
                     });
  }
}

bool BehaviorModel::HasTrace(std::uint64_t device_key) const {
  return traces_.contains(device_key);
}

bool BehaviorModel::TracedAvailable(std::uint64_t device_key, SimTime t) const {
  const auto it = traces_.find(device_key);
  const std::vector<UsageTraceEvent>& timeline = it->second;
  // Last edge at or before t rules; before the first edge the device is
  // online (traces open mid-life, not at first boot).
  const auto after = std::upper_bound(
      timeline.begin(), timeline.end(), t,
      [](SimTime value, const UsageTraceEvent& e) { return value < e.time; });
  if (after == timeline.begin()) return true;
  return std::prev(after)->online;
}

double BehaviorModel::DutyCycle(SimTime t) const {
  const double swing =
      config_.diurnal_amplitude *
      std::sin(kTwoPi * CyclePosition(t, config_.diurnal_period,
                                      config_.diurnal_phase));
  return std::clamp(config_.mean_availability + swing, 0.0, 1.0);
}

SimTime BehaviorModel::LeaveTime(std::uint64_t device_key) const {
  if (config_.churn_rate <= 0.0) return -1;
  const double member =
      HashUnit(DeterministicHash(config_.seed, device_key, kChurnSalt));
  if (member >= config_.churn_rate) return -1;
  const double fraction =
      HashUnit(DeterministicHash(config_.seed, device_key, kLeaveSalt));
  return static_cast<SimTime>(fraction *
                              static_cast<double>(config_.churn_horizon));
}

SimTime BehaviorModel::RejoinTime(std::uint64_t device_key) const {
  const SimTime leave = LeaveTime(device_key);
  if (leave < 0 || config_.rejoin_fraction <= 0.0) return -1;
  const double member =
      HashUnit(DeterministicHash(config_.seed, device_key, kRejoinSalt));
  if (member >= config_.rejoin_fraction) return -1;
  return leave + std::max<SimDuration>(1, config_.churn_downtime);
}

bool BehaviorModel::ChurnedOut(std::uint64_t device_key, SimTime t) const {
  const SimTime leave = LeaveTime(device_key);
  if (leave < 0 || t < leave) return false;
  const SimTime rejoin = RejoinTime(device_key);
  return rejoin < 0 || t < rejoin;
}

double BehaviorModel::BatteryLevel(std::uint64_t device_key, SimTime t) const {
  if (!config_.enabled || config_.battery_period <= 0) return 1.0;
  const double phase =
      HashUnit(DeterministicHash(config_.seed, device_key, kBatterySalt));
  const double x = CyclePosition(t, config_.battery_period, phase);
  // Sawtooth: discharge 1.00 -> 0.05 over three quarters of the cycle,
  // charge back over the last quarter.
  if (x < 0.75) return 1.0 - (x / 0.75) * 0.95;
  return 0.05 + ((x - 0.75) / 0.25) * 0.95;
}

bool BehaviorModel::Charging(std::uint64_t device_key, SimTime t) const {
  if (!config_.enabled || config_.battery_period <= 0) return false;
  const double phase =
      HashUnit(DeterministicHash(config_.seed, device_key, kBatterySalt));
  return CyclePosition(t, config_.battery_period, phase) >= 0.75;
}

bool BehaviorModel::Available(std::uint64_t device_key, SimTime t) const {
  if (!config_.enabled) return true;
  if (HasTrace(device_key)) return TracedAvailable(device_key, t);
  if (ChurnedOut(device_key, t)) return false;
  // Fixed per-device threshold against the fleet duty cycle: the SET of
  // available devices evolves smoothly with the curve (devices with low
  // thresholds are the reliable ones), instead of re-rolling membership
  // every query.
  const double threshold =
      HashUnit(DeterministicHash(config_.seed, device_key, kAvailSalt));
  if (threshold >= DutyCycle(t)) return false;
  if (config_.min_battery > 0.0 &&
      BatteryLevel(device_key, t) < config_.min_battery &&
      !Charging(device_key, t)) {
    return false;
  }
  return true;
}

double BehaviorModel::LinkFailureProbability(std::uint64_t device_key,
                                             SimTime t) const {
  (void)device_key;  // per-device link tiers are a future knob
  if (!config_.enabled) return 0.0;
  // Peaks at the availability trough (sin == -1): congested evenings have
  // both fewer available devices and flakier links.
  const double swing =
      config_.link_diurnal_swing * 0.5 *
      (1.0 - std::sin(kTwoPi * CyclePosition(t, config_.diurnal_period,
                                             config_.diurnal_phase)));
  return std::clamp(config_.link_base_failure + swing, 0.0, 0.95);
}

std::vector<ChurnEvent> BehaviorModel::ChurnEventsBetween(std::uint64_t n,
                                                          SimTime t0,
                                                          SimTime t1) const {
  std::vector<ChurnEvent> events;
  for (std::uint64_t key = 0; key < n; ++key) {
    const SimTime leave = LeaveTime(key);
    if (leave >= t0 && leave < t1) events.push_back({key, leave, false});
    const SimTime rejoin = RejoinTime(key);
    if (rejoin >= t0 && rejoin < t1 && rejoin >= 0) {
      events.push_back({key, rejoin, true});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.time != b.time ? a.time < b.time
                                      : a.device_key < b.device_key;
            });
  return events;
}

}  // namespace simdc::device
