#include "device/phone.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace simdc::device {
namespace {

constexpr std::uint64_t kSaltCurrent = 0x11;
constexpr std::uint64_t kSaltVoltage = 0x22;
constexpr std::uint64_t kSaltCpu = 0x33;
constexpr std::uint64_t kSaltMem = 0x44;

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

}  // namespace

Phone::Phone(PhoneSpec spec, const ManualClock& clock)
    : spec_(std::move(spec)), clock_(clock), power_(spec_.grade) {}

void Phone::ScheduleRun(RunPlan plan) {
  SIMDC_CHECK(!plan.rounds.empty(), "run plan needs at least one round");
  SimTime prev = plan.apk_launch_start;
  for (const auto& round : plan.rounds) {
    SIMDC_CHECK(round.train_start >= prev, "rounds must be ordered");
    SIMDC_CHECK(round.train_end > round.train_start, "empty round window");
    prev = round.train_end;
  }
  SIMDC_CHECK(plan.closure_start >= prev, "closure before last round end");
  SIMDC_CHECK(plan.closure_end > plan.closure_start, "empty closure window");
  if (!plans_.empty()) {
    SIMDC_CHECK(plan.apk_launch_start >= plans_.back().closure_end,
                "plans must not overlap");
  }
  plans_.push_back(std::move(plan));
}

const RunPlan* Phone::PlanCovering(SimTime t) const {
  for (const auto& plan : plans_) {
    if (t >= plan.apk_launch_start && t < plan.closure_end) return &plan;
  }
  return nullptr;
}

const RoundWindow* Phone::RoundCovering(const RunPlan& plan, SimTime t) {
  for (const auto& round : plan.rounds) {
    if (t >= round.train_start && t < round.train_end) return &round;
  }
  return nullptr;
}

ApkStage Phone::StageWithin(const RunPlan& plan, SimTime t) const {
  if (t >= plan.closure_start) return ApkStage::kApkClosure;
  if (RoundCovering(plan, t) != nullptr) return ApkStage::kTraining;
  if (t < plan.rounds.front().train_start) return ApkStage::kApkLaunch;
  return ApkStage::kPostTraining;  // waiting for global aggregation
}

ApkStage Phone::StageAt(SimTime t) const {
  const RunPlan* plan = PlanCovering(t);
  return plan == nullptr ? ApkStage::kNoApk : StageWithin(*plan, t);
}

std::optional<int> Phone::PidOf(std::string_view process_name,
                                SimTime t) const {
  const RunPlan* plan = PlanCovering(t);
  if (plan == nullptr || process_name != kTrainingProcess) {
    return std::nullopt;
  }
  return plan->pid;
}

std::int64_t Phone::CurrentNowMicroAmps(SimTime t) const {
  Rng rng = NoiseAt(t, kSaltCurrent);
  return power_.CurrentNowMicroAmps(StageAt(t), rng);
}

std::int64_t Phone::VoltageNowMicroVolts(SimTime t) const {
  Rng rng = NoiseAt(t, kSaltVoltage);
  return power_.VoltageNowMicroVolts(StageAt(t), rng);
}

double Phone::CpuPercentAt(SimTime t) const {
  Rng rng = NoiseAt(t, kSaltCpu);
  const double jitter = rng.Normal();
  const double ts = ToSeconds(t);
  switch (StageAt(t)) {
    case ApkStage::kNoApk:
      return 0.0;  // process does not exist
    case ApkStage::kApkLaunch:
      return std::max(0.5, 21.0 + 2.5 * jitter);
    case ApkStage::kTraining: {
      // Fig. 5: CPU oscillates roughly 2–14% with a few-second period.
      const double base = spec_.grade == DeviceGrade::kHigh ? 8.0 : 11.0;
      const double phase =
          static_cast<double>(spec_.seed % 997) / 997.0 * 2.0 * std::numbers::pi;
      const double wave =
          4.0 * std::sin(2.0 * std::numbers::pi * ts / 6.5 + phase);
      return std::max(0.5, base + wave + 1.2 * jitter);
    }
    case ApkStage::kPostTraining:
      return std::max(0.3, 1.6 + 0.5 * jitter);
    case ApkStage::kApkClosure:
      return std::max(0.5, 5.0 + 1.0 * jitter);
  }
  return 0.0;
}

std::int64_t Phone::MemPssKbAt(SimTime t) const {
  const RunPlan* plan = PlanCovering(t);
  if (plan == nullptr) return 0;
  Rng rng = NoiseAt(t, kSaltMem);
  const double jitter_kb = 400.0 * rng.Normal();
  double mb = 0.0;
  switch (StageWithin(*plan, t)) {
    case ApkStage::kNoApk:
      return 0;
    case ApkStage::kApkLaunch: {
      // Ramp 12 → 22 MB while the APK initializes.
      const double span = static_cast<double>(
          plan->rounds.front().train_start - plan->apk_launch_start);
      const double progress =
          span <= 0 ? 1.0
                    : Clamp01(static_cast<double>(t - plan->apk_launch_start) / span);
      mb = 12.0 + 10.0 * progress;
      break;
    }
    case ApkStage::kTraining: {
      // Fig. 5: climbs from ~25 MB to ~45 MB across a training round.
      const RoundWindow* round = RoundCovering(*plan, t);
      const double span =
          static_cast<double>(round->train_end - round->train_start);
      const double progress =
          Clamp01(static_cast<double>(t - round->train_start) / span);
      mb = 25.0 + 20.0 * progress;
      break;
    }
    case ApkStage::kPostTraining:
      mb = 30.0;
      break;
    case ApkStage::kApkClosure:
      mb = 18.0;
      break;
  }
  return std::max<std::int64_t>(
      1024, static_cast<std::int64_t>(mb * 1024.0 + jitter_kb));
}

Phone::WlanCounters Phone::WlanAt(SimTime t) const {
  WlanCounters counters;
  for (const auto& plan : plans_) {
    // Per round: download streams over the opening slice of the training
    // window, upload over the closing slice, so all task communication is
    // attributed to the Training stage (Table I reports comm only there).
    for (const auto& round : plan.rounds) {
      const SimTime span = round.train_end - round.train_start;
      const SimTime window =
          std::max<SimTime>(1, std::min<SimTime>(Seconds(1.0), span / 5));
      // Download at round start.
      if (t >= round.train_start) {
        const double progress =
            Clamp01(static_cast<double>(t - round.train_start) /
                    static_cast<double>(window));
        counters.rx_bytes += static_cast<std::int64_t>(
            progress * static_cast<double>(round.download_bytes));
      }
      // Upload finishing exactly at round end.
      const SimTime upload_start = round.train_end - window;
      if (t >= upload_start) {
        const double progress =
            Clamp01(static_cast<double>(t - upload_start) /
                    static_cast<double>(window));
        counters.tx_bytes += static_cast<std::int64_t>(
            progress * static_cast<double>(round.upload_bytes));
      }
    }
    // Background drip while the APK is alive (keep-alives, telemetry).
    const SimTime alive_from = plan.apk_launch_start;
    if (t > alive_from) {
      const SimTime alive_until = std::min(t, plan.closure_end);
      const double alive_s =
          ToSeconds(std::max<SimTime>(0, alive_until - alive_from));
      counters.rx_bytes += static_cast<std::int64_t>(12.0 * alive_s);
      counters.tx_bytes += static_cast<std::int64_t>(9.0 * alive_s);
    }
  }
  return counters;
}

double Phone::EnergyConsumedMah(SimTime t0, SimTime t1) const {
  SIMDC_CHECK(t1 >= t0, "EnergyConsumedMah: t1 < t0");
  // Collect stage boundaries intersecting [t0, t1) and integrate piecewise.
  std::vector<SimTime> cuts = {t0, t1};
  for (const auto& plan : plans_) {
    cuts.push_back(plan.apk_launch_start);
    for (const auto& round : plan.rounds) {
      cuts.push_back(round.train_start);
      cuts.push_back(round.train_end);
    }
    cuts.push_back(plan.closure_start);
    cuts.push_back(plan.closure_end);
  }
  std::sort(cuts.begin(), cuts.end());
  double mah = 0.0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const SimTime a = std::clamp(cuts[i], t0, t1);
    const SimTime b = std::clamp(cuts[i + 1], t0, t1);
    if (b <= a) continue;
    const double hours = ToSeconds(b - a) / 3600.0;
    mah += power_.MeanCurrentMa(StageAt(a)) * hours;
  }
  return mah;
}

std::int64_t Phone::CommBytesBetween(SimTime t0, SimTime t1) const {
  const WlanCounters c0 = WlanAt(t0);
  const WlanCounters c1 = WlanAt(t1);
  return (c1.rx_bytes - c0.rx_bytes) + (c1.tx_bytes - c0.tx_bytes);
}

}  // namespace simdc::device
