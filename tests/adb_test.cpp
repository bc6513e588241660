// Unit tests for the simulated ADB shell and the output parsers —
// the measurement pipeline of §IV-C.
#include <gtest/gtest.h>

#include "adb/adb_server.h"
#include "adb/parsers.h"
#include "common/clock.h"
#include "device/phone.h"

namespace simdc::adb {
namespace {

using device::ApkStage;
using device::Phone;
using device::PhoneSpec;
using device::RoundWindow;
using device::RunPlan;

class AdbTest : public ::testing::Test {
 protected:
  AdbTest() : phone_(Spec(), clock_), adb_(phone_) {
    RunPlan plan;
    plan.apk_launch_start = 0;
    RoundWindow round;
    round.train_start = Seconds(15);
    round.train_end = Seconds(35);
    round.download_bytes = 16 * 1024;
    round.upload_bytes = 17 * 1024;
    plan.rounds = {round};
    plan.closure_start = Seconds(40);
    plan.closure_end = Seconds(55);
    plan.pid = 4242;
    phone_.ScheduleRun(plan);
    clock_.AdvanceTo(Seconds(20));  // mid-training
  }

  static PhoneSpec Spec() {
    PhoneSpec spec;
    spec.id = PhoneId(9);
    spec.grade = device::DeviceGrade::kHigh;
    spec.memory_gb = 12.0;
    spec.seed = 77;
    return spec;
  }

  ManualClock clock_;
  Phone phone_;
  AdbServer adb_;
};

// ---------- command execution ----------

TEST_F(AdbTest, CurrentNowIsParsableNegativeMicroAmps) {
  auto out = adb_.Shell("cat /sys/class/power_supply/battery/current_now");
  ASSERT_TRUE(out.ok());
  auto value = ParseSysfsValue(*out);
  ASSERT_TRUE(value.ok());
  EXPECT_LT(*value, 0);
  EXPECT_GT(*value, -200000);  // sane µA magnitude for training
}

TEST_F(AdbTest, VoltageNowNearNominal) {
  auto out = adb_.Shell("cat /sys/class/power_supply/battery/voltage_now");
  ASSERT_TRUE(out.ok());
  auto value = ParseSysfsValue(*out);
  ASSERT_TRUE(value.ok());
  EXPECT_NEAR(static_cast<double>(*value), 3.85e6, 0.3e6);
}

TEST_F(AdbTest, UnknownSysfsFileIsNotFound) {
  auto out = adb_.Shell("cat /sys/class/thermal/temp");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code(), ErrorCode::kNotFound);
}

TEST_F(AdbTest, PgrepFindsTrainingProcess) {
  auto out = adb_.Shell("pgrep -f com.simdc.fltrain");
  ASSERT_TRUE(out.ok());
  auto pid = ParsePgrepPid(*out);
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(*pid, 4242);
}

TEST_F(AdbTest, PgrepMissesUnknownProcess) {
  EXPECT_FALSE(adb_.Shell("pgrep -f com.other.app").ok());
}

TEST_F(AdbTest, PgrepMissesAfterClosure) {
  EXPECT_FALSE(adb_.ShellAt("pgrep -f com.simdc.fltrain", Seconds(60)).ok());
}

TEST_F(AdbTest, TopOutputRoundTripsCpuPercent) {
  auto out = adb_.Shell("top -b -n 1 -p 4242");
  ASSERT_TRUE(out.ok());
  // Output contains header noise that the parser must skip.
  EXPECT_NE(out->find("Tasks:"), std::string::npos);
  EXPECT_NE(out->find("PID USER"), std::string::npos);
  auto cpu = ParseTopCpuPercent(*out, 4242);
  ASSERT_TRUE(cpu.ok());
  EXPECT_NEAR(*cpu, phone_.CpuPercentAt(Seconds(20)), 0.11);
}

TEST_F(AdbTest, TopWrongPidIsNotFound) {
  EXPECT_FALSE(adb_.Shell("top -b -n 1 -p 9999").ok());
  EXPECT_FALSE(adb_.Shell("top -b -n 1").ok());  // missing -p
}

TEST_F(AdbTest, DumpsysMeminfoRoundTripsPss) {
  auto out = adb_.Shell("dumpsys meminfo com.simdc.fltrain");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("MEMINFO in pid 4242"), std::string::npos);
  auto pss = ParseDumpsysPssKb(*out);
  ASSERT_TRUE(pss.ok());
  EXPECT_NEAR(static_cast<double>(*pss),
              static_cast<double>(phone_.MemPssKbAt(Seconds(20))), 1.0);
}

TEST_F(AdbTest, DumpsysShorthandAccepted) {
  // The paper writes `dumpsys <process_name>`.
  EXPECT_TRUE(adb_.Shell("dumpsys com.simdc.fltrain").ok());
}

TEST_F(AdbTest, NetDevRoundTripsWlanCounters) {
  auto out = adb_.Shell("cat /proc/4242/net/dev");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("wlan0:"), std::string::npos);
  EXPECT_NE(out->find("lo:"), std::string::npos);  // noise the parser skips
  auto wlan = ParseNetDevWlan(*out);
  ASSERT_TRUE(wlan.ok());
  const auto truth = phone_.WlanAt(Seconds(20));
  EXPECT_EQ(wlan->rx_bytes, truth.rx_bytes);
  EXPECT_EQ(wlan->tx_bytes, truth.tx_bytes);
  EXPECT_EQ(wlan->total(), truth.rx_bytes + truth.tx_bytes);
}

TEST_F(AdbTest, EmptyAndUnknownCommandsRejected) {
  EXPECT_FALSE(adb_.Shell("").ok());
  EXPECT_FALSE(adb_.Shell("reboot").ok());
  EXPECT_FALSE(adb_.Shell("pgrep com.simdc.fltrain").ok());  // missing -f
}

TEST_F(AdbTest, ShellAtQueriesHistoricalState) {
  // At t = 5 s the APK is launching: CPU high, process alive.
  auto top5 = adb_.ShellAt("top -b -n 1 -p 4242", Seconds(5));
  ASSERT_TRUE(top5.ok());
  auto cpu5 = ParseTopCpuPercent(*top5, 4242);
  ASSERT_TRUE(cpu5.ok());
  EXPECT_GT(*cpu5, 10.0);  // launch spike
}

// ---------- parsers against hostile/realistic text ----------

TEST(ParserTest, SysfsRejectsGarbage) {
  EXPECT_FALSE(ParseSysfsValue("not-a-number").ok());
  EXPECT_FALSE(ParseSysfsValue("").ok());
  EXPECT_TRUE(ParseSysfsValue("  -123456\n").ok());
}

TEST(ParserTest, PgrepSkipsBlankLines) {
  auto pid = ParsePgrepPid("\n\n1234\n");
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(*pid, 1234);
  EXPECT_FALSE(ParsePgrepPid("\n\n").ok());
}

TEST(ParserTest, PgrepRefusesPidOutsideIntRange) {
  // 4294971496 is 2^32 + 4200: narrowed to int it would read as pid 4200.
  for (const char* out : {"4294971496\n", "0\n", "-7\n", "2147483648\n"}) {
    const auto pid = ParsePgrepPid(out);
    ASSERT_FALSE(pid.ok()) << out;
    EXPECT_EQ(pid.error().code(), ErrorCode::kParseError) << out;
  }
  const auto max = ParsePgrepPid("2147483647\n");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(*max, 2147483647);
}

TEST(ParserTest, TopMatchesPidWithoutTruncation) {
  // A wider pid whose low 32 bits equal the asked pid must not match it.
  const std::string out =
      "  PID USER         PR  NI VIRT  RES  SHR S %CPU %MEM     TIME+ ARGS\n"
      " 4294971496 u0_a1  20   0 1.0G  10M   9M S 77.0  0.1   0:01.00 "
      "other\n"
      " 4200 u0_a217      20   0 1.9G  72M  36M S  3.0  0.4   1:23.45 "
      "com.simdc.fltrain\n";
  const auto cpu = ParseTopCpuPercent(out, 4200);
  ASSERT_TRUE(cpu.ok());
  EXPECT_DOUBLE_EQ(*cpu, 3.0);
}

TEST(ParserTest, TopParsesRealisticToyboxOutput) {
  const std::string out =
      "Tasks: 612 total,   1 running\n"
      "  Mem:  11534336K total\n"
      "800%cpu  60%user   0%nice  20%sys 720%idle\n"
      "  PID USER         PR  NI VIRT  RES  SHR S %CPU %MEM     TIME+ ARGS\n"
      " 1000 system       20   0 1.0G  10M   9M S  1.0  0.1   0:01.00 "
      "system_server\n"
      " 4242 u0_a217      20   0 1.9G  72M  36M S  9.8  0.4   1:23.45 "
      "com.simdc.fltrain\n";
  auto cpu = ParseTopCpuPercent(out, 4242);
  ASSERT_TRUE(cpu.ok());
  EXPECT_DOUBLE_EQ(*cpu, 9.8);
  EXPECT_FALSE(ParseTopCpuPercent(out, 5555).ok());
}

TEST(ParserTest, TopRejectsTruncatedProcessLine) {
  EXPECT_FALSE(ParseTopCpuPercent(" 4242 u0_a217 20\n", 4242).ok());
}

TEST(ParserTest, DumpsysFindsTotalPssAmongNoise) {
  const std::string out =
      "Applications Memory Usage (in Kilobytes):\n"
      "  Native Heap    14000\n"
      "        TOTAL PSS: 46180            TOTAL RSS: 69270\n";
  auto pss = ParseDumpsysPssKb(out);
  ASSERT_TRUE(pss.ok());
  EXPECT_EQ(*pss, 46180);
  EXPECT_FALSE(ParseDumpsysPssKb("no pss here").ok());
  EXPECT_FALSE(ParseDumpsysPssKb("TOTAL PSS: banana").ok());
}

TEST(ParserTest, NetDevSumsRxAndTx) {
  const std::string out =
      "Inter-|   Receive |  Transmit\n"
      " face |bytes packets errs drop fifo frame compressed multicast|bytes"
      " packets errs drop fifo colls carrier compressed\n"
      "    lo: 100 2 0 0 0 0 0 0 100 2 0 0 0 0 0 0\n"
      " wlan0: 5000 10 0 0 0 0 0 0 3000 8 0 0 0 0 0 0\n";
  auto wlan = ParseNetDevWlan(out);
  ASSERT_TRUE(wlan.ok());
  EXPECT_EQ(wlan->rx_bytes, 5000);
  EXPECT_EQ(wlan->tx_bytes, 3000);
  EXPECT_EQ(wlan->total(), 8000);
}

TEST(ParserTest, NetDevWithoutWlanFails) {
  EXPECT_FALSE(ParseNetDevWlan("    lo: 1 1 0 0 0 0 0 0 1 1 0 0 0 0 0 0\n").ok());
  EXPECT_FALSE(ParseNetDevWlan(" wlan0: 12 3\n").ok());  // truncated
}

}  // namespace
}  // namespace simdc::adb
