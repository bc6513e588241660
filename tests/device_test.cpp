// Unit tests for the device substrate: grades, power model, the simulated
// phone's lifecycle/sensors, and fleet factories.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/clock.h"
#include "common/stats.h"
#include "device/fleet.h"
#include "device/grade.h"
#include "device/phone.h"
#include "device/power_model.h"

namespace simdc::device {
namespace {

PhoneSpec HighSpec(std::uint64_t seed = 1) {
  PhoneSpec spec;
  spec.id = PhoneId(1);
  spec.grade = DeviceGrade::kHigh;
  spec.memory_gb = 12.0;
  spec.seed = seed;
  return spec;
}

/// A plan with 2 rounds: launch 0–15 s, rounds at [15,31.2) and [45,61.2),
/// closure at [70, 85).
RunPlan TwoRoundPlan() {
  RunPlan plan;
  plan.apk_launch_start = 0;
  RoundWindow r1;
  r1.train_start = Seconds(15);
  r1.train_end = Seconds(31.2);
  r1.download_bytes = 16 * 1024;
  r1.upload_bytes = 17 * 1024;
  RoundWindow r2 = r1;
  r2.train_start = Seconds(45);
  r2.train_end = Seconds(61.2);
  plan.rounds = {r1, r2};
  plan.closure_start = Seconds(70);
  plan.closure_end = Seconds(85);
  plan.pid = 4242;
  return plan;
}

// ---------- grades ----------

TEST(GradeTest, SpecsMatchPaperConfigs) {
  const GradeSpec high = HighGradeSpec();
  EXPECT_EQ(high.unit_bundles, 8u);
  const GradeSpec low = LowGradeSpec();
  // Low-grade hardware is slower in both venues.
  EXPECT_GT(low.alpha_s, high.alpha_s);
  EXPECT_GT(low.beta_s, high.beta_s);
  EXPECT_GT(low.lambda_s, high.lambda_s);
}

TEST(GradeTest, IndexRoundTrip) {
  EXPECT_EQ(GradeFromIndex(GradeIndex(DeviceGrade::kHigh)), DeviceGrade::kHigh);
  EXPECT_EQ(GradeFromIndex(GradeIndex(DeviceGrade::kLow)), DeviceGrade::kLow);
  EXPECT_EQ(ToString(DeviceGrade::kHigh), "High");
}

// ---------- power model ----------

TEST(PowerModelTest, TableICalibrationHigh) {
  const PowerModel model(DeviceGrade::kHigh);
  // mAh = mA * minutes / 60 must reproduce Table I.
  EXPECT_NEAR(model.MeanCurrentMa(ApkStage::kNoApk) * 0.25 / 60.0, 0.24, 1e-6);
  EXPECT_NEAR(model.MeanCurrentMa(ApkStage::kApkLaunch) * 0.25 / 60.0, 0.51,
              1e-6);
  EXPECT_NEAR(model.MeanCurrentMa(ApkStage::kTraining) * 0.27 / 60.0, 0.18,
              1e-6);
  EXPECT_NEAR(model.MeanCurrentMa(ApkStage::kPostTraining) * 0.25 / 60.0, 0.37,
              1e-6);
  EXPECT_NEAR(model.MeanCurrentMa(ApkStage::kApkClosure) * 0.25 / 60.0, 0.44,
              1e-6);
}

TEST(PowerModelTest, TableICalibrationLow) {
  const PowerModel model(DeviceGrade::kLow);
  EXPECT_NEAR(model.MeanCurrentMa(ApkStage::kNoApk) * 0.25 / 60.0, 1.71, 1e-6);
  EXPECT_NEAR(model.MeanCurrentMa(ApkStage::kTraining) * 0.36 / 60.0, 0.66,
              1e-6);
}

TEST(PowerModelTest, CurrentReadingsAreNegativeAndNoisy) {
  const PowerModel model(DeviceGrade::kHigh, 0.05);
  Rng rng(1);
  RunningStats stats;
  for (int i = 0; i < 2000; ++i) {
    const auto ua = model.CurrentNowMicroAmps(ApkStage::kTraining, rng);
    EXPECT_LT(ua, 0);  // discharging convention
    stats.Add(static_cast<double>(-ua) / 1000.0);
  }
  EXPECT_NEAR(stats.mean(), model.MeanCurrentMa(ApkStage::kTraining),
              model.MeanCurrentMa(ApkStage::kTraining) * 0.01);
  EXPECT_GT(stats.stddev(), 0.0);
}

TEST(PowerModelTest, VoltageSagsUnderLoad) {
  const PowerModel high(DeviceGrade::kLow, 0.0);
  Rng rng1(1), rng2(1);
  const auto idle = high.VoltageNowMicroVolts(ApkStage::kTraining, rng1);
  const auto heavy = high.VoltageNowMicroVolts(ApkStage::kApkClosure, rng2);
  EXPECT_GT(idle, heavy);  // closure draws more on Low grade
  EXPECT_NEAR(static_cast<double>(idle), 3.85e6, 0.5e6);
}

// ---------- phone lifecycle ----------

TEST(PhoneTest, StageProgression) {
  ManualClock clock;
  Phone phone(HighSpec(), clock);
  EXPECT_EQ(phone.StageAt(Seconds(5)), ApkStage::kNoApk);  // no plan yet
  phone.ScheduleRun(TwoRoundPlan());
  EXPECT_EQ(phone.StageAt(Seconds(5)), ApkStage::kApkLaunch);
  EXPECT_EQ(phone.StageAt(Seconds(20)), ApkStage::kTraining);
  EXPECT_EQ(phone.StageAt(Seconds(35)), ApkStage::kPostTraining);  // waiting
  EXPECT_EQ(phone.StageAt(Seconds(50)), ApkStage::kTraining);      // round 2
  EXPECT_EQ(phone.StageAt(Seconds(65)), ApkStage::kPostTraining);
  EXPECT_EQ(phone.StageAt(Seconds(75)), ApkStage::kApkClosure);
  EXPECT_EQ(phone.StageAt(Seconds(90)), ApkStage::kNoApk);
}

TEST(PhoneTest, RejectsMalformedPlans) {
  ManualClock clock;
  Phone phone(HighSpec(), clock);
  RunPlan plan = TwoRoundPlan();
  plan.rounds.clear();
  EXPECT_THROW(phone.ScheduleRun(plan), std::invalid_argument);
  plan = TwoRoundPlan();
  std::swap(plan.rounds[0], plan.rounds[1]);  // out of order
  EXPECT_THROW(phone.ScheduleRun(plan), std::invalid_argument);
  plan = TwoRoundPlan();
  plan.closure_end = plan.closure_start;  // empty closure
  EXPECT_THROW(phone.ScheduleRun(plan), std::invalid_argument);
}

TEST(PhoneTest, PidVisibleOnlyWhileApkAlive) {
  ManualClock clock;
  Phone phone(HighSpec(), clock);
  auto plan = TwoRoundPlan();
  plan.apk_launch_start = Seconds(10);
  phone.ScheduleRun(plan);
  EXPECT_FALSE(phone.PidOf("com.simdc.fltrain", Seconds(5)).has_value());
  EXPECT_EQ(phone.PidOf("com.simdc.fltrain", Seconds(20)), 4242);
  EXPECT_FALSE(phone.PidOf("other.app", Seconds(20)).has_value());
  EXPECT_FALSE(phone.PidOf("com.simdc.fltrain", Seconds(90)).has_value());
}

TEST(PhoneTest, CpuTraceMatchesFig5Shape) {
  ManualClock clock;
  Phone phone(HighSpec(), clock);
  phone.ScheduleRun(TwoRoundPlan());
  // During training: oscillating, noticeably above the waiting baseline.
  RunningStats training, waiting;
  for (double t = 16.0; t < 31.0; t += 0.5) {
    training.Add(phone.CpuPercentAt(Seconds(t)));
  }
  for (double t = 33.0; t < 44.0; t += 0.5) {
    waiting.Add(phone.CpuPercentAt(Seconds(t)));
  }
  EXPECT_GT(training.mean(), 4.0);
  EXPECT_LT(training.mean(), 16.0);
  EXPECT_LT(waiting.mean(), 3.0);
  EXPECT_GT(training.stddev(), 1.0);  // visible oscillation
  EXPECT_EQ(phone.CpuPercentAt(Seconds(90)), 0.0);  // process gone
}

TEST(PhoneTest, MemoryRampsWithinRound) {
  ManualClock clock;
  Phone phone(HighSpec(), clock);
  phone.ScheduleRun(TwoRoundPlan());
  const auto early = phone.MemPssKbAt(Seconds(16));
  const auto late = phone.MemPssKbAt(Seconds(30));
  EXPECT_GT(late, early + 10 * 1024);  // climbs ≥10 MB across the round
  EXPECT_EQ(phone.MemPssKbAt(Seconds(90)), 0);
}

TEST(PhoneTest, SensorQueriesAreDeterministic) {
  ManualClock clock;
  Phone a(HighSpec(7), clock), b(HighSpec(7), clock);
  a.ScheduleRun(TwoRoundPlan());
  b.ScheduleRun(TwoRoundPlan());
  for (double t : {5.0, 20.0, 35.0, 75.0}) {
    EXPECT_EQ(a.CurrentNowMicroAmps(Seconds(t)),
              b.CurrentNowMicroAmps(Seconds(t)));
    EXPECT_EQ(a.CpuPercentAt(Seconds(t)), b.CpuPercentAt(Seconds(t)));
    EXPECT_EQ(a.MemPssKbAt(Seconds(t)), b.MemPssKbAt(Seconds(t)));
  }
}

TEST(PhoneTest, WlanCountersMonotoneAndRoundSized) {
  ManualClock clock;
  Phone phone(HighSpec(), clock);
  phone.ScheduleRun(TwoRoundPlan());
  Phone::WlanCounters prev;
  for (double t = 0.0; t < 90.0; t += 0.25) {
    const auto counters = phone.WlanAt(Seconds(t));
    EXPECT_GE(counters.rx_bytes, prev.rx_bytes);
    EXPECT_GE(counters.tx_bytes, prev.tx_bytes);
    prev = counters;
  }
  // Round 1 communication ≈ download + upload (±background drip).
  const auto comm =
      phone.CommBytesBetween(Seconds(15), Seconds(31.2));
  EXPECT_NEAR(static_cast<double>(comm), 33.0 * 1024.0, 2.0 * 1024.0);
}

TEST(PhoneTest, EnergyIntegralMatchesTableI) {
  ManualClock clock;
  Phone phone(HighSpec(), clock);
  auto plan = TwoRoundPlan();
  phone.ScheduleRun(plan);
  // Launch stage: 15 s at 122.4 mA = 0.51 mAh per 0.25 min → for 15 s:
  // 122.4 * (15/3600) = 0.51 mAh.
  EXPECT_NEAR(phone.EnergyConsumedMah(0, Seconds(15)), 0.51, 1e-6);
  // Training round 1 (16.2 s at 40 mA) = 0.18 mAh.
  EXPECT_NEAR(phone.EnergyConsumedMah(Seconds(15), Seconds(31.2)), 0.18, 1e-6);
  // Additivity.
  const double total = phone.EnergyConsumedMah(0, Seconds(85));
  const double split = phone.EnergyConsumedMah(0, Seconds(40)) +
                       phone.EnergyConsumedMah(Seconds(40), Seconds(85));
  EXPECT_NEAR(total, split, 1e-9);
}

// ---------- fleets ----------

TEST(FleetTest, DefaultClusterMatchesPaper) {
  const auto cluster = MakeDefaultCluster(42);
  EXPECT_EQ(cluster.size(), 30u);  // 10 local + 20 MSP
  std::size_t local_high = 0, local_low = 0, msp_high = 0, msp_low = 0;
  for (const auto& spec : cluster) {
    if (spec.remote_msp) {
      (spec.grade == DeviceGrade::kHigh ? msp_high : msp_low)++;
    } else {
      (spec.grade == DeviceGrade::kHigh ? local_high : local_low)++;
    }
  }
  EXPECT_EQ(local_high, 4u);
  EXPECT_EQ(local_low, 6u);
  EXPECT_EQ(msp_high, 13u);
  EXPECT_EQ(msp_low, 7u);
}

TEST(FleetTest, GradeMemoryClassificationRule) {
  // High grade: >8 GB; Low grade: <8 GB (§VI-A2).
  for (const auto& spec : MakeDefaultCluster(7)) {
    if (spec.grade == DeviceGrade::kHigh) {
      EXPECT_GT(spec.memory_gb, 8.0);
    } else {
      EXPECT_LT(spec.memory_gb, 8.0);
    }
  }
}

TEST(FleetTest, UniqueIdsAndDeterminism) {
  const auto a = MakeDefaultCluster(11);
  const auto b = MakeDefaultCluster(11);
  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ids.insert(a[i].id.value());
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].model, b[i].model);
  }
  EXPECT_EQ(ids.size(), a.size());
}

}  // namespace
}  // namespace simdc::device
