// Failure-injection tests: APK crashes mid-round (paper §II-B lists
// "application crashes" among the real device behaviors a simulator must
// model), recovery relaunches, multi-plan phone schedules and dynamic
// cluster scale-down.
#include <gtest/gtest.h>

#include <set>

#include "cloud/database.h"
#include "core/platform.h"
#include "core/status.h"
#include "device/fleet.h"
#include "phonemgr/phone_mgr.h"
#include "sim/event_loop.h"

namespace simdc::device {
namespace {

class CrashTest : public ::testing::Test {
 protected:
  CrashTest() : mgr_(loop_) {
    mgr_.RegisterFleet(MakeDefaultCluster(42));
    mgr_.set_metrics_sink(&db_);
  }

  PhoneJob CrashyJob(TaskId task, double p) {
    PhoneJob job;
    job.task = task;
    job.grade = DeviceGrade::kHigh;
    job.devices_to_simulate = 6;
    job.computing_phones = 2;
    job.benchmarking_phones = 1;
    job.rounds = 4;
    job.round_duration_s = 10.0;
    job.startup_s = 8.0;
    job.aggregation_wait_s = 4.0;
    job.crash_probability = p;
    job.crash_recovery_s = 12.0;
    job.sample_period = Seconds(1.0);
    job.seed = 99;
    return job;
  }

  sim::EventLoop loop_;
  PhoneMgr mgr_;
  cloud::MetricsDatabase db_;
};

TEST_F(CrashTest, NoCrashesWhenProbabilityZero) {
  auto handle = mgr_.SubmitJob(CrashyJob(TaskId(1), 0.0));
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->crashes, 0u);
  EXPECT_EQ(handle->abandoned_rounds, 0u);
  loop_.Run();
}

TEST_F(CrashTest, CrashesExtendMakespanAndRetryRounds) {
  auto clean = mgr_.SubmitJob(CrashyJob(TaskId(1), 0.0));
  ASSERT_TRUE(clean.ok());
  auto crashy = mgr_.SubmitJob(CrashyJob(TaskId(2), 0.5));
  ASSERT_TRUE(crashy.ok());
  EXPECT_GT(crashy->crashes, 0u);
  // Recovery + retries push completion later than the clean job.
  EXPECT_GT(crashy->finish_time, clean->finish_time);

  std::size_t completed_hooks = 0;
  auto job = CrashyJob(TaskId(3), 0.5);
  job.on_round_complete = [&](PhoneId, std::size_t, SimTime) {
    ++completed_hooks;
  };
  auto handle = mgr_.SubmitJob(job);
  ASSERT_TRUE(handle.ok());
  loop_.Run();
  // Every non-abandoned round of every phone eventually completes once.
  const std::size_t phones = 3;  // 2 computing + 1 benchmarking
  EXPECT_EQ(completed_hooks + handle->abandoned_rounds,
            phones * job.rounds);
}

TEST_F(CrashTest, CrashedRoundUploadsNothing) {
  auto job = CrashyJob(TaskId(1), 0.6);
  auto handle = mgr_.SubmitJob(job);
  ASSERT_TRUE(handle.ok());
  ASSERT_GT(handle->crashes, 0u);
  loop_.Run();
  // Find a phone with multiple plans (i.e. that crashed at least once).
  bool found_crashed_plan = false;
  for (PhoneId id : handle->computing) {
    const Phone* phone = mgr_.FindPhone(id);
    if (phone->plan_count() < 2) continue;
    found_crashed_plan = true;
  }
  EXPECT_TRUE(found_crashed_plan);
}

TEST_F(CrashTest, PgrepSeesRecoveryPid) {
  auto job = CrashyJob(TaskId(1), 0.7);
  auto handle = mgr_.SubmitJob(job);
  ASSERT_TRUE(handle.ok());
  loop_.Run();
  // A crashed phone has distinct pids per APK lifetime; during a recovery
  // gap the process is absent.
  for (PhoneId id : handle->computing) {
    Phone* phone = mgr_.FindPhone(id);
    if (phone->plan_count() < 2) continue;
    // Query right after the first plan's closure: process gone.
    const RunPlan* last = phone->plan();
    adb::AdbServer* shell = mgr_.FindAdb(id);
    // Mid-first-plan: pid == first plan's pid (pgrep through ADB).
    // (Walk via PlanCovering on a time inside the final plan.)
    const SimTime inside_last =
        last->apk_launch_start + Seconds(1.0);
    auto pgrep = shell->ShellAt(std::string("pgrep -f ") + kTrainingProcess,
                                inside_last);
    ASSERT_TRUE(pgrep.ok());
    return;  // one crashed phone is enough
  }
  GTEST_SKIP() << "no phone crashed with this seed";
}

TEST_F(CrashTest, PathologicalProbabilityAbandonsRounds) {
  auto job = CrashyJob(TaskId(1), 1.0);  // always crashes
  job.max_round_attempts = 3;
  auto handle = mgr_.SubmitJob(job);
  ASSERT_TRUE(handle.ok());
  // 3 phones × 4 rounds all abandoned after 3 attempts each.
  EXPECT_EQ(handle->abandoned_rounds, 3u * 4u);
  EXPECT_EQ(handle->crashes, 3u * 4u * 3u);
  loop_.Run();  // terminates (no infinite retry)
}

TEST_F(CrashTest, CrashDrawsAreDeterministic) {
  auto h1 = mgr_.SubmitJob(CrashyJob(TaskId(1), 0.5));
  ASSERT_TRUE(h1.ok());
  loop_.Run();
  // Fresh manager, same fleet/seed: identical crash count.
  sim::EventLoop loop2;
  PhoneMgr mgr2(loop2);
  mgr2.RegisterFleet(MakeDefaultCluster(42));
  auto h2 = mgr2.SubmitJob(CrashyJob(TaskId(1), 0.5));
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h1->crashes, h2->crashes);
  EXPECT_EQ(h1->finish_time, h2->finish_time);
  loop2.Run();
}

// ---------- multi-plan phone schedules ----------

TEST(MultiPlanPhoneTest, PlansMustNotOverlap) {
  ManualClock clock;
  PhoneSpec spec;
  spec.id = PhoneId(1);
  Phone phone(spec, clock);
  RunPlan first;
  first.apk_launch_start = 0;
  first.rounds = {{Seconds(5), Seconds(10), 0, 0}};
  first.closure_start = Seconds(10);
  first.closure_end = Seconds(12);
  first.pid = 100;
  phone.ScheduleRun(first);
  RunPlan overlapping = first;
  overlapping.apk_launch_start = Seconds(11);  // inside first's window
  overlapping.rounds = {{Seconds(15), Seconds(20), 0, 0}};
  overlapping.closure_start = Seconds(20);
  overlapping.closure_end = Seconds(22);
  EXPECT_THROW(phone.ScheduleRun(overlapping), std::invalid_argument);
}

TEST(MultiPlanPhoneTest, StagesSpanSegments) {
  ManualClock clock;
  PhoneSpec spec;
  spec.id = PhoneId(1);
  Phone phone(spec, clock);
  RunPlan first;
  first.apk_launch_start = 0;
  first.rounds = {{Seconds(5), Seconds(8), 1000, 0}};  // crashed: no upload
  first.closure_start = Seconds(8);
  first.closure_end = Seconds(9);
  first.pid = 100;
  phone.ScheduleRun(first);
  RunPlan recovery;
  recovery.apk_launch_start = Seconds(20);
  recovery.rounds = {{Seconds(25), Seconds(30), 1000, 2000}};
  recovery.closure_start = Seconds(30);
  recovery.closure_end = Seconds(32);
  recovery.pid = 101;
  phone.ScheduleRun(recovery);

  EXPECT_EQ(phone.StageAt(Seconds(6)), ApkStage::kTraining);
  EXPECT_EQ(phone.StageAt(Seconds(8.5)), ApkStage::kApkClosure);
  EXPECT_EQ(phone.StageAt(Seconds(15)), ApkStage::kNoApk);  // recovery gap
  EXPECT_EQ(phone.StageAt(Seconds(22)), ApkStage::kApkLaunch);
  EXPECT_EQ(phone.StageAt(Seconds(27)), ApkStage::kTraining);
  // Distinct pids per APK lifetime.
  EXPECT_EQ(phone.PidOf("com.simdc.fltrain", Seconds(6)), 100);
  EXPECT_FALSE(phone.PidOf("com.simdc.fltrain", Seconds(15)).has_value());
  EXPECT_EQ(phone.PidOf("com.simdc.fltrain", Seconds(27)), 101);
  // Wlan counters accumulate across segments and stay monotone.
  const auto before = phone.WlanAt(Seconds(10));
  const auto after = phone.WlanAt(Seconds(32));
  EXPECT_GT(after.rx_bytes, before.rx_bytes);
  EXPECT_GT(after.tx_bytes, before.tx_bytes);
  // Energy integrates across the idle gap at idle current.
  const double gap_energy = phone.EnergyConsumedMah(Seconds(9), Seconds(20));
  EXPECT_GT(gap_energy, 0.0);
}

// ---------- dynamic cluster scale-down ----------

TEST(UnregisterTest, RemovesIdleRejectsBusy) {
  sim::EventLoop loop;
  PhoneMgr mgr(loop);
  mgr.RegisterFleet(MakeLocalFleet(2, 0, 7, 0));
  ASSERT_EQ(mgr.TotalPhones(), 2u);

  PhoneJob job;
  job.task = TaskId(1);
  job.grade = DeviceGrade::kHigh;
  job.benchmarking_phones = 1;
  job.rounds = 1;
  auto handle = mgr.SubmitJob(job);
  ASSERT_TRUE(handle.ok());
  const PhoneId busy = handle->benchmarking[0];
  EXPECT_FALSE(mgr.UnregisterPhone(busy).ok());

  // The other phone is idle and can be removed.
  const PhoneId idle = busy == PhoneId(0) ? PhoneId(1) : PhoneId(0);
  EXPECT_TRUE(mgr.UnregisterPhone(idle).ok());
  EXPECT_EQ(mgr.TotalPhones(), 1u);
  EXPECT_FALSE(mgr.UnregisterPhone(idle).ok());  // already gone
  loop.Run();
  EXPECT_TRUE(mgr.UnregisterPhone(busy).ok());  // freed after completion
}

}  // namespace
}  // namespace simdc::device

// ---------- status reporter ----------

namespace simdc::core {
namespace {

TEST(StatusTest, RendersAllSections) {
  Platform platform;
  sched::TaskSpec task;
  task.name = "visible-task";
  task.priority = 3;
  sched::DeviceRequirement requirement;
  requirement.grade = device::DeviceGrade::kHigh;
  requirement.num_devices = 10;
  requirement.logical_bundles = 16;
  requirement.phones = 1;
  task.requirements.push_back(requirement);
  ASSERT_TRUE(platform.SubmitTask(task).ok());

  const std::string status = RenderStatus(platform);
  EXPECT_NE(status.find("SimDC platform status"), std::string::npos);
  EXPECT_NE(status.find("task queue: 1 waiting"), std::string::npos);
  EXPECT_NE(status.find("visible-task"), std::string::npos);
  EXPECT_NE(status.find("unit bundles free"), std::string::npos);
  EXPECT_NE(status.find("phone cluster: 30 phones"), std::string::npos);

  const std::string line = RenderStatusLine(platform);
  EXPECT_NE(line.find("queue=1"), std::string::npos);

  // After execution, the queue is empty and samples exist is optional
  // (no benchmarking phones requested here).
  platform.RunQueuedTasks();
  const std::string after = RenderStatus(platform);
  EXPECT_NE(after.find("task queue: 0 waiting"), std::string::npos);
}

}  // namespace
}  // namespace simdc::core
