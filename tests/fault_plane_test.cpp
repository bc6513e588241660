// Fault-tolerant fleet plane suite: deterministic device churn
// (device::BehaviorModel), flaky-link retry/backoff (flow::LinkPolicy),
// and graceful round degradation (AggregationService quorum/deadline).
//
// The load-bearing contract under test: every fault draw is a pure
// function of (seed, device/message key, time/attempt), so a fixed fault
// seed produces bit-identical FlRunResult, arrival stamps, drop counts and
// merged DispatchStats at every shard width — churn, transient failures
// and retries included — and turning every knob off reproduces the
// pre-fault-plane engine exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "cloud/aggregation.h"
#include "core/fl_engine.h"
#include "data/synth_avazu.h"
#include "device/behavior.h"
#include "device/fleet.h"
#include "flow/device_flow.h"
#include "golden_digest.h"
#include "ml/lr_model.h"
#include "phonemgr/phone_mgr.h"
#include "sim/event_loop.h"

namespace simdc {
namespace {

// ---------- BehaviorModel: synthetic plane ----------

TEST(BehaviorModelTest, DisabledModelIsTransparent) {
  device::BehaviorConfig config;  // enabled = false
  device::BehaviorModel model(config);
  for (std::uint64_t key : {0ULL, 7ULL, 123456ULL}) {
    EXPECT_TRUE(model.Available(key, 0));
    EXPECT_TRUE(model.Available(key, Seconds(86400.0)));
    EXPECT_EQ(model.BatteryLevel(key, Seconds(5000.0)), 1.0);
    EXPECT_EQ(model.LinkFailureProbability(key, Seconds(5000.0)), 0.0);
  }
}

TEST(BehaviorModelTest, QueriesArePureFunctionsOfSeed) {
  device::BehaviorConfig config;
  config.enabled = true;
  config.seed = 42;
  config.mean_availability = 0.6;
  config.diurnal_amplitude = 0.3;
  config.churn_rate = 0.2;
  config.rejoin_fraction = 0.5;
  config.link_base_failure = 0.1;
  config.link_diurnal_swing = 0.2;
  device::BehaviorModel a(config);
  device::BehaviorModel b(config);
  for (std::uint64_t key = 0; key < 64; ++key) {
    for (const double t_s : {0.0, 3600.0, 43200.0, 86399.0}) {
      const SimTime t = Seconds(t_s);
      EXPECT_EQ(a.Available(key, t), b.Available(key, t));
      EXPECT_EQ(a.BatteryLevel(key, t), b.BatteryLevel(key, t));
      EXPECT_EQ(a.LinkFailureProbability(key, t),
                b.LinkFailureProbability(key, t));
    }
    EXPECT_EQ(a.LeaveTime(key), b.LeaveTime(key));
    EXPECT_EQ(a.RejoinTime(key), b.RejoinTime(key));
  }
}

TEST(BehaviorModelTest, DiurnalDutyCycleSwingsAroundMean) {
  device::BehaviorConfig config;
  config.enabled = true;
  config.mean_availability = 0.5;
  config.diurnal_amplitude = 0.4;
  config.diurnal_period = Seconds(86400.0);
  device::BehaviorModel model(config);
  // Peak at a quarter period (sin = 1), trough at three quarters.
  EXPECT_NEAR(model.DutyCycle(Seconds(21600.0)), 0.9, 1e-9);
  EXPECT_NEAR(model.DutyCycle(Seconds(64800.0)), 0.1, 1e-9);
  // Clamped into [0, 1] even with an over-full swing.
  config.diurnal_amplitude = 0.9;
  device::BehaviorModel wide(config);
  for (double t_s = 0.0; t_s < 86400.0; t_s += 3600.0) {
    const double duty = wide.DutyCycle(Seconds(t_s));
    EXPECT_GE(duty, 0.0);
    EXPECT_LE(duty, 1.0);
  }
}

TEST(BehaviorModelTest, AvailabilityTracksDutyCycle) {
  device::BehaviorConfig config;
  config.enabled = true;
  config.seed = 9;
  config.mean_availability = 0.5;
  config.diurnal_amplitude = 0.4;
  device::BehaviorModel model(config);
  const SimTime peak = Seconds(21600.0);
  const SimTime trough = Seconds(64800.0);
  std::size_t at_peak = 0, at_trough = 0;
  const std::uint64_t n = 2000;
  for (std::uint64_t key = 0; key < n; ++key) {
    at_peak += model.Available(key, peak) ? 1 : 0;
    at_trough += model.Available(key, trough) ? 1 : 0;
  }
  // Fixed per-device thresholds: the available SET follows the curve.
  EXPECT_NEAR(static_cast<double>(at_peak) / n, 0.9, 0.05);
  EXPECT_NEAR(static_cast<double>(at_trough) / n, 0.1, 0.05);
  // Monotone membership: everyone available at the trough is available at
  // the peak (their threshold is below the lower duty cycle).
  for (std::uint64_t key = 0; key < n; ++key) {
    if (model.Available(key, trough)) {
      EXPECT_TRUE(model.Available(key, peak)) << "key=" << key;
    }
  }
}

TEST(BehaviorModelTest, ChurnScheduleAndEvents) {
  device::BehaviorConfig config;
  config.enabled = true;
  config.seed = 5;
  config.mean_availability = 1.0;  // isolate churn
  config.churn_rate = 0.5;
  config.churn_horizon = Seconds(1000.0);
  config.rejoin_fraction = 0.5;
  config.churn_downtime = Seconds(100.0);
  device::BehaviorModel model(config);
  const std::uint64_t n = 200;
  std::size_t leavers = 0, rejoiners = 0;
  for (std::uint64_t key = 0; key < n; ++key) {
    const SimTime leave = model.LeaveTime(key);
    const SimTime rejoin = model.RejoinTime(key);
    if (leave < 0) {
      EXPECT_LT(rejoin, 0);
      EXPECT_TRUE(model.Available(key, Seconds(1500.0)));
      continue;
    }
    ++leavers;
    EXPECT_LT(leave, Seconds(1000.0));
    EXPECT_FALSE(model.Available(key, leave));  // gone from the instant on
    if (rejoin >= 0) {
      ++rejoiners;
      EXPECT_EQ(rejoin, leave + Seconds(100.0));
      EXPECT_TRUE(model.Available(key, rejoin));
    }
  }
  EXPECT_GT(leavers, n / 4);
  EXPECT_GT(rejoiners, 0u);

  // ChurnEventsBetween covers exactly the edges in the window, sorted.
  const auto events = model.ChurnEventsBetween(n, 0, Seconds(2000.0));
  std::size_t leaves = 0, joins = 0;
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_TRUE(events[i - 1].time < events[i].time ||
                (events[i - 1].time == events[i].time &&
                 events[i - 1].device_key < events[i].device_key));
  }
  for (const auto& event : events) (event.join ? joins : leaves)++;
  EXPECT_EQ(leaves, leavers);
  EXPECT_EQ(joins, rejoiners);
}

TEST(BehaviorModelTest, BatterySawtoothAndGate) {
  device::BehaviorConfig config;
  config.enabled = true;
  config.seed = 11;
  config.mean_availability = 1.0;
  config.min_battery = 0.3;
  config.battery_period = Seconds(1000.0);
  device::BehaviorModel model(config);
  bool saw_charging = false, saw_low_unavailable = false;
  for (std::uint64_t key = 0; key < 50; ++key) {
    for (double t_s = 0.0; t_s < 1000.0; t_s += 25.0) {
      const SimTime t = Seconds(t_s);
      const double level = model.BatteryLevel(key, t);
      EXPECT_GE(level, 0.05 - 1e-9);
      EXPECT_LE(level, 1.0 + 1e-9);
      if (model.Charging(key, t)) {
        saw_charging = true;
        EXPECT_TRUE(model.Available(key, t));  // charging overrides the gate
      } else if (level < 0.3) {
        saw_low_unavailable = true;
        EXPECT_FALSE(model.Available(key, t));
      }
    }
  }
  EXPECT_TRUE(saw_charging);
  EXPECT_TRUE(saw_low_unavailable);
}

TEST(BehaviorModelTest, LinkFailurePeaksAtAvailabilityTrough) {
  device::BehaviorConfig config;
  config.enabled = true;
  config.link_base_failure = 0.05;
  config.link_diurnal_swing = 0.3;
  device::BehaviorModel model(config);
  const double at_peak = model.LinkFailureProbability(0, Seconds(21600.0));
  const double at_trough = model.LinkFailureProbability(0, Seconds(64800.0));
  EXPECT_NEAR(at_peak, 0.05, 1e-9);
  EXPECT_NEAR(at_trough, 0.35, 1e-9);
}

// ---------- BehaviorModel: trace replay ----------

TEST(UsageTraceTest, ParsesStatesStagesAndComments) {
  const auto events = device::ParseUsageTrace(
      "# Fig. 5 usage trace\n"
      "0 7 online\n"
      "10.5 7 offline   # screen off\n"
      "20 8 1\n"
      "30 8 4\n"
      "\n");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[0].device_key, 7u);
  EXPECT_EQ((*events)[0].time, 0);
  EXPECT_TRUE((*events)[0].online);
  EXPECT_EQ((*events)[1].time, Seconds(10.5));
  EXPECT_FALSE((*events)[1].online);
  EXPECT_FALSE((*events)[2].online);  // ApkStage 1 = no APK running
  EXPECT_TRUE((*events)[3].online);   // ApkStage 4 = running
}

TEST(UsageTraceTest, RejectsMalformedLines) {
  EXPECT_FALSE(device::ParseUsageTrace("10 7 sideways").ok());
  EXPECT_FALSE(device::ParseUsageTrace("10 7 9").ok());  // stage out of range
  EXPECT_FALSE(device::ParseUsageTrace("-1 7 online").ok());
  EXPECT_FALSE(device::ParseUsageTrace("banana").ok());
  // Times past the spec loader's 1e12 s bound do not fit the clock: they
  // are refused, naming the line, before any conversion.
  const auto huge = device::ParseUsageTrace("0 7 online\n1e300 7 online");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.error().code(), ErrorCode::kParseError);
  EXPECT_NE(huge.error().message().find("line 2"), std::string::npos)
      << huge.error().ToString();
  EXPECT_FALSE(device::ParseUsageTrace("1.000001e12 7 online").ok());
  EXPECT_TRUE(device::ParseUsageTrace("1e12 7 online").ok());
}

TEST(UsageTraceTest, TraceOverridesSyntheticCurve) {
  device::BehaviorConfig config;
  config.enabled = true;
  config.mean_availability = 0.0;  // synthetic curve says: nobody
  device::BehaviorModel model(config);
  auto events = device::ParseUsageTrace(
      "5 1 offline\n"
      "10 1 online\n");
  ASSERT_TRUE(events.ok());
  model.LoadTrace(std::move(*events));
  EXPECT_TRUE(model.HasTrace(1));
  EXPECT_FALSE(model.HasTrace(2));
  EXPECT_TRUE(model.Available(1, 0));              // before first edge
  EXPECT_FALSE(model.Available(1, Seconds(5.0)));  // offline edge rules
  EXPECT_FALSE(model.Available(1, Seconds(9.0)));
  EXPECT_TRUE(model.Available(1, Seconds(10.0)));
  EXPECT_TRUE(model.Available(1, Seconds(500.0)));
  EXPECT_FALSE(model.Available(2, Seconds(500.0)));  // untraced: synthetic
}

// ---------- Dispatcher link plane ----------

class CountingEndpoint final : public flow::CloudEndpoint {
 public:
  void DeliverTick(std::vector<flow::Message> tick) override {
    delivered += tick.size();
  }
  std::size_t delivered = 0;
};

flow::Message LinkMessage(std::uint64_t id) {
  flow::Message m;
  m.id = MessageId(id);
  m.task = TaskId(1);
  m.device = DeviceId(id);
  m.sample_count = 1;
  return m;
}

TEST(LinkPolicyTest, RetriesRecoverTransientFailures) {
  sim::EventLoop loop;
  CountingEndpoint sink;
  flow::Dispatcher dispatcher(loop, TaskId(1),
                              flow::RealtimeAccumulated{{1}, 0.0}, &sink, 21);
  flow::LinkPolicy link;
  link.transient_failure_probability = 0.5;
  link.max_attempts = 6;
  link.backoff_initial = Seconds(1.0);
  dispatcher.set_link_policy(link);
  const std::size_t n = 200;
  for (std::uint64_t id = 1; id <= n; ++id) {
    dispatcher.OnMessage(LinkMessage(id));
  }
  loop.Run();
  const flow::DispatchStats& stats = dispatcher.stats();
  EXPECT_EQ(stats.received, n);
  EXPECT_EQ(stats.sent + stats.dropped, n);  // quiescence taxonomy
  EXPECT_EQ(sink.delivered, stats.sent);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.retry_successes, 0u);
  // With p = 0.5 and 6 attempts, nearly everything gets through.
  EXPECT_GT(stats.sent, n * 9 / 10);
  EXPECT_EQ(stats.churn_losses, 0u);
  EXPECT_EQ(stats.deadline_drops, 0u);
}

TEST(LinkPolicyTest, SingleAttemptDropsWithoutRetry) {
  sim::EventLoop loop;
  CountingEndpoint sink;
  flow::Dispatcher dispatcher(loop, TaskId(1),
                              flow::RealtimeAccumulated{{1}, 0.0}, &sink, 21);
  flow::LinkPolicy link;
  link.transient_failure_probability = 0.5;
  link.max_attempts = 1;
  dispatcher.set_link_policy(link);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    dispatcher.OnMessage(LinkMessage(id));
  }
  loop.Run();
  const flow::DispatchStats& stats = dispatcher.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_GT(stats.dropped, 20u);
  EXPECT_EQ(stats.sent + stats.dropped, 100u);
}

TEST(LinkPolicyTest, UploadDeadlineBoundsTheRetrySchedule) {
  sim::EventLoop loop;
  CountingEndpoint sink;
  flow::Dispatcher dispatcher(loop, TaskId(1),
                              flow::RealtimeAccumulated{{1}, 0.0}, &sink, 21);
  flow::LinkPolicy link;
  link.transient_failure_probability = 0.6;
  link.max_attempts = 10;
  link.backoff_initial = Seconds(4.0);
  link.upload_deadline = Seconds(6.0);  // roughly one retry fits
  dispatcher.set_link_policy(link);
  for (std::uint64_t id = 1; id <= 200; ++id) {
    dispatcher.OnMessage(LinkMessage(id));
  }
  loop.Run();
  const flow::DispatchStats& stats = dispatcher.stats();
  EXPECT_GT(stats.deadline_drops, 0u);
  EXPECT_EQ(stats.sent + stats.dropped, 200u);
  // Every deadline drop is also a plain drop (loss taxonomy).
  EXPECT_GE(stats.dropped, stats.deadline_drops);
}

TEST(LinkPolicyTest, ChurnedDevicesBookChurnLosses) {
  sim::EventLoop loop;
  CountingEndpoint sink;
  flow::Dispatcher dispatcher(loop, TaskId(1),
                              flow::RealtimeAccumulated{{1}, 0.0}, &sink, 21);
  flow::LinkPolicy link;
  link.max_attempts = 3;
  link.backoff_initial = Seconds(1.0);
  dispatcher.set_link_policy(link);
  // Odd devices are churned out forever; evens have a perfect link.
  dispatcher.set_availability(
      [](DeviceId device, SimTime) { return device.value() % 2 == 0; });
  for (std::uint64_t id = 1; id <= 100; ++id) {
    dispatcher.OnMessage(LinkMessage(id));
  }
  loop.Run();
  const flow::DispatchStats& stats = dispatcher.stats();
  EXPECT_EQ(stats.churn_losses, 50u);
  EXPECT_EQ(stats.dropped, 50u);
  EXPECT_EQ(stats.sent, 50u);
  EXPECT_EQ(sink.delivered, 50u);
  // Each churned message burned its two retries before the loss.
  EXPECT_EQ(stats.retries, 100u);
  EXPECT_EQ(stats.retry_successes, 0u);
}

TEST(LinkPolicyTest, RetryScheduleIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::EventLoop loop;
    CountingEndpoint sink;
    flow::Dispatcher dispatcher(loop, TaskId(1),
                                flow::RealtimeAccumulated{{1}, 0.0}, &sink,
                                seed);
    flow::LinkPolicy link;
    link.transient_failure_probability = 0.4;
    link.max_attempts = 4;
    dispatcher.set_link_policy(link);
    for (std::uint64_t id = 1; id <= 150; ++id) {
      dispatcher.OnMessage(LinkMessage(id));
    }
    loop.Run();
    return dispatcher.stats();
  };
  const auto a = run(77);
  const auto b = run(77);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_successes, b.retry_successes);
  EXPECT_EQ(a.batches, b.batches);  // identical retry fire times
  const auto c = run(78);
  EXPECT_NE(a.batches, c.batches);  // the seed actually matters
}

TEST(LinkPolicyTest, HugeBackoffMultiplierCapsAtBackoffMax) {
  // The second retry's base is 1e300 s, far past SimDuration's range: it
  // must cap at backoff_max (60 s), which lands past the 30 s deadline.
  sim::EventLoop loop;
  CountingEndpoint sink;
  flow::Dispatcher dispatcher(loop, TaskId(1),
                              flow::RealtimeAccumulated{{1}, 0.0}, &sink, 21);
  flow::LinkPolicy link;
  link.transient_failure_probability = 1.0;
  link.max_attempts = 3;
  link.backoff_initial = Seconds(1.0);
  link.backoff_multiplier = 1e300;
  link.backoff_max = Seconds(60.0);
  link.upload_deadline = Seconds(30.0);
  dispatcher.set_link_policy(link);
  dispatcher.OnMessage(LinkMessage(1));
  loop.Run();
  const flow::DispatchStats& stats = dispatcher.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.deadline_drops, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.sent, 0u);
}

TEST(ChurnRegressionTest, UnregisterPhoneWithPendingRetriesNoDangling) {
  // The churn scenario with dangling potential: a device leaves the fleet
  // (PhoneMgr::UnregisterPhone) while its dispatcher still has in-flight
  // retry events whose closures capture the dispatcher. Tearing the
  // dispatcher down must cancel every pending retry; the drained loop then
  // touches no freed memory (this is an ASan/UBSan-gated suite in CI).
  sim::EventLoop loop;
  device::PhoneMgr mgr(loop);
  mgr.RegisterFleet(device::MakeDefaultCluster(42));
  const std::size_t fleet = mgr.TotalPhones();

  CountingEndpoint sink;
  auto dispatcher = std::make_unique<flow::Dispatcher>(
      loop, TaskId(1), flow::RealtimeAccumulated{{1}, 0.0}, &sink, 99);
  flow::LinkPolicy link;
  link.transient_failure_probability = 0.95;
  link.max_attempts = 8;
  link.backoff_initial = Seconds(60.0);  // retries land far in the future
  dispatcher->set_link_policy(link);
  for (std::uint64_t id = 1; id <= 64; ++id) {
    dispatcher->OnMessage(LinkMessage(id));
  }
  loop.RunUntil(Seconds(1.0));  // attempt 0 fired, retries now pending
  ASSERT_GT(dispatcher->pending_retries(), 0u);

  // The churned device leaves mid-flight.
  ASSERT_TRUE(mgr.UnregisterPhone(PhoneId(1)).ok());
  EXPECT_EQ(mgr.TotalPhones(), fleet - 1);
  EXPECT_EQ(mgr.FindPhone(PhoneId(1)), nullptr);

  const std::size_t delivered_before = sink.delivered;
  dispatcher.reset();  // cancels every pending this-capturing retry
  loop.Run();          // nothing left to fire into freed memory
  EXPECT_EQ(sink.delivered, delivered_before);
}

// ---------- AggregationService quorum/deadline policy ----------

class QuorumTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kDim = 8;

  flow::Message Upload(float weight0, std::size_t samples, std::uint64_t id) {
    ml::LrModel model(kDim);
    model.weights()[0] = weight0;
    flow::Message m;
    m.id = MessageId(id);
    m.task = TaskId(1);
    m.device = DeviceId(id);
    m.round = 0;
    m.payload = store_.Put(model.ToBytes());
    m.sample_count = samples;
    return m;
  }

  /// Delivers `message` as a one-message tick stamped with `arrival`, the
  /// way a dispatcher hands it to the service.
  void DeliverOne(cloud::AggregationService& service, flow::Message message,
                  SimTime arrival) {
    message.arrival = arrival;
    std::vector<flow::Message> tick;
    tick.push_back(std::move(message));
    service.DeliverTick(std::move(tick));
  }

  cloud::AggregationConfig PolicyConfig() {
    cloud::AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = cloud::AggregationTrigger::kSampleThreshold;
    config.sample_threshold = 1000000;  // the deadline is the only closer
    config.round_quorum = 2;
    config.round_deadline = Seconds(10.0);
    config.round_extension = Seconds(5.0);
    config.max_round_extensions = 1;
    return config;
  }

  sim::EventLoop loop_;
  cloud::BlobStore store_;
};

TEST_F(QuorumTest, DeadlineCommitsWithQuorumMet) {
  cloud::AggregationService service(loop_, store_, PolicyConfig());
  service.OnRoundOpened(0);
  DeliverOne(service, Upload(1.0f, 10, 1), Seconds(1.0));
  DeliverOne(service, Upload(3.0f, 10, 2), Seconds(2.0));
  EXPECT_EQ(service.rounds_completed(), 0u);  // threshold unreachable
  loop_.Run();
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.deadline_commits(), 1u);
  EXPECT_EQ(service.round_extensions(), 0u);
  EXPECT_EQ(service.aborted_rounds(), 0u);
  EXPECT_EQ(service.history()[0].time, Seconds(10.0));
  EXPECT_EQ(service.history()[0].clients, 2u);
  EXPECT_NEAR(service.global_model().weights()[0], 2.0, 1e-6);
}

TEST_F(QuorumTest, DeadlineExtendsBelowQuorumThenCommits) {
  cloud::AggregationService service(loop_, store_, PolicyConfig());
  service.OnRoundOpened(0);
  DeliverOne(service, Upload(1.0f, 10, 1), Seconds(1.0));
  // The second update straggles in during the extension window.
  loop_.ScheduleAt(Seconds(12.0), [&] {
    DeliverOne(service, Upload(3.0f, 10, 2), Seconds(12.0));
  });
  loop_.Run();
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.round_extensions(), 1u);
  EXPECT_EQ(service.deadline_commits(), 1u);
  EXPECT_EQ(service.aborted_rounds(), 0u);
  EXPECT_EQ(service.history()[0].time, Seconds(15.0));  // deadline + 5s
  EXPECT_EQ(service.history()[0].clients, 2u);
}

TEST_F(QuorumTest, AbortsAfterExtensionsExhausted) {
  cloud::AggregationService service(loop_, store_, PolicyConfig());
  SimTime aborted_at = -1;
  service.set_on_round_aborted([&](SimTime when) { aborted_at = when; });
  service.OnRoundOpened(0);
  // Forever below quorum.
  DeliverOne(service, Upload(1.0f, 10, 1), Seconds(1.0));
  loop_.Run();
  EXPECT_EQ(service.rounds_completed(), 0u);
  EXPECT_EQ(service.round_extensions(), 1u);
  EXPECT_EQ(service.aborted_rounds(), 1u);
  EXPECT_EQ(service.deadline_commits(), 0u);
  EXPECT_EQ(aborted_at, Seconds(15.0));  // deadline + one extension
  // The partial accumulator was discarded with the round.
  EXPECT_EQ(service.pending_clients(), 0u);
  EXPECT_EQ(service.pending_samples(), 0u);
}

TEST_F(QuorumTest, TriggerClosingOnTimeRetiresTheDeadline) {
  auto config = PolicyConfig();
  config.sample_threshold = 20;  // reachable before the deadline
  cloud::AggregationService service(loop_, store_, config);
  service.OnRoundOpened(0);
  DeliverOne(service, Upload(1.0f, 10, 1), Seconds(1.0));
  DeliverOne(service, Upload(3.0f, 10, 2), Seconds(2.0));
  ASSERT_EQ(service.rounds_completed(), 1u);  // threshold closed it
  loop_.Run();  // any stale deadline event must be gone or inert
  EXPECT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.deadline_commits(), 0u);
  EXPECT_EQ(service.round_extensions(), 0u);
  EXPECT_EQ(service.aborted_rounds(), 0u);
}

TEST_F(QuorumTest, DisabledPolicySchedulesNothing) {
  auto config = PolicyConfig();
  config.round_quorum = 0;  // half-set policy stays off
  cloud::AggregationService service(loop_, store_, config);
  service.OnRoundOpened(0);
  EXPECT_EQ(loop_.Run(), 0u);  // no deadline event was armed
}

TEST_F(QuorumTest, SnapshotRoundTripsDegradationCounters) {
  cloud::AggregationService service(loop_, store_, PolicyConfig());
  service.OnRoundOpened(0);
  DeliverOne(service, Upload(1.0f, 10, 1), Seconds(1.0));
  DeliverOne(service, Upload(3.0f, 10, 2), Seconds(2.0));
  loop_.Run();  // one deadline commit
  const cloud::AggregationSnapshot snapshot = service.Snapshot();
  EXPECT_EQ(snapshot.deadline_commits, 1u);
  cloud::AggregationService restored(loop_, store_, PolicyConfig());
  restored.RestoreSnapshot(snapshot);
  EXPECT_EQ(restored.deadline_commits(), 1u);
  EXPECT_EQ(restored.round_extensions(), 0u);
  EXPECT_EQ(restored.aborted_rounds(), 0u);
  EXPECT_EQ(restored.rounds_completed(), 1u);
}

// ---------- Engine integration: the fault plane end to end ----------

data::FederatedDataset Dataset(std::size_t devices = 96) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = 10;
  config.num_test_devices = 8;
  config.hash_dim = 1u << 10;
  config.seed = 33;
  return data::GenerateSyntheticAvazu(config);
}

core::FlExperimentConfig BaseConfig() {
  core::FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 1;
  config.logical_fraction = 0.5;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.seed = 7;
  config.strategy = flow::RealtimeAccumulated{
      {1}, 0.0, flow::kShardWidthInvariantCapacity};
  return config;
}

/// Full fault ladder: diurnal availability + churn + flaky links + retries
/// + per-message deadlines, in the width-invariant flow regime.
core::FlExperimentConfig FaultConfig() {
  auto config = BaseConfig();
  config.behavior.enabled = true;
  config.behavior.seed = 19;
  config.behavior.mean_availability = 0.8;
  config.behavior.diurnal_amplitude = 0.15;
  config.behavior.diurnal_period = Seconds(120.0);  // fast cycle for a test
  config.behavior.churn_rate = 0.15;
  config.behavior.churn_horizon = Seconds(60.0);
  config.behavior.rejoin_fraction = 0.5;
  config.behavior.churn_downtime = Seconds(20.0);
  config.behavior.link_base_failure = 0.15;
  config.behavior.link_diurnal_swing = 0.2;
  config.link.max_attempts = 3;
  config.link.backoff_initial = Seconds(2.0);
  config.link.backoff_multiplier = 2.0;
  config.link.upload_deadline = Seconds(25.0);
  return config;
}

struct FaultOutcome {
  core::FlRunResult result;
  flow::DispatchStats stats;
  std::size_t messages_received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
  /// golden::RunDigest of the run.
  std::uint64_t digest = 0;
};

FaultOutcome RunFault(const data::FederatedDataset& dataset,
                      core::FlExperimentConfig config, std::size_t shards) {
  sim::EventLoop loop;
  config.shards = shards;
  core::FlEngine engine(loop, dataset, std::move(config));
  FaultOutcome out;
  out.result = engine.Run();
  out.stats = engine.dispatch_stats();
  out.messages_received = engine.aggregation().messages_received();
  out.decode_failures = engine.aggregation().decode_failures();
  out.stale_rejections = engine.aggregation().stale_rejections();
  out.digest = golden::RunDigest(engine, out.result);
  return out;
}

void ExpectOutcomesIdentical(const FaultOutcome& a, const FaultOutcome& b,
                             std::size_t shards) {
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size())
      << "shards=" << shards;
  for (std::size_t i = 0; i < a.result.rounds.size(); ++i) {
    EXPECT_EQ(a.result.rounds[i].round, b.result.rounds[i].round);
    EXPECT_EQ(a.result.rounds[i].time, b.result.rounds[i].time)
        << "shards=" << shards << " round=" << i;
    EXPECT_EQ(a.result.rounds[i].clients, b.result.rounds[i].clients);
    EXPECT_EQ(a.result.rounds[i].samples, b.result.rounds[i].samples);
    EXPECT_EQ(a.result.rounds[i].test_accuracy,
              b.result.rounds[i].test_accuracy);
    EXPECT_EQ(a.result.rounds[i].test_logloss,
              b.result.rounds[i].test_logloss);
    EXPECT_EQ(a.result.rounds[i].train_accuracy,
              b.result.rounds[i].train_accuracy);
    EXPECT_EQ(a.result.rounds[i].train_logloss,
              b.result.rounds[i].train_logloss);
  }
  EXPECT_EQ(a.result.messages_emitted, b.result.messages_emitted);
  EXPECT_EQ(a.result.messages_dropped, b.result.messages_dropped);
  EXPECT_EQ(a.result.skipped_unavailable, b.result.skipped_unavailable);
  EXPECT_EQ(a.result.rounds_degraded, b.result.rounds_degraded);
  EXPECT_EQ(a.result.rounds_extended, b.result.rounds_extended);
  EXPECT_EQ(a.result.rounds_aborted, b.result.rounds_aborted);
  ASSERT_EQ(a.result.final_weights.size(), b.result.final_weights.size());
  EXPECT_EQ(0, std::memcmp(a.result.final_weights.data(),
                           b.result.final_weights.data(),
                           a.result.final_weights.size() * sizeof(float)))
      << "shards=" << shards;
  EXPECT_EQ(a.result.final_bias, b.result.final_bias);
  EXPECT_EQ(a.stats.received, b.stats.received) << "shards=" << shards;
  EXPECT_EQ(a.stats.sent, b.stats.sent) << "shards=" << shards;
  EXPECT_EQ(a.stats.dropped, b.stats.dropped) << "shards=" << shards;
  EXPECT_EQ(a.stats.retries, b.stats.retries) << "shards=" << shards;
  EXPECT_EQ(a.stats.retry_successes, b.stats.retry_successes)
      << "shards=" << shards;
  EXPECT_EQ(a.stats.deadline_drops, b.stats.deadline_drops)
      << "shards=" << shards;
  EXPECT_EQ(a.stats.churn_losses, b.stats.churn_losses)
      << "shards=" << shards;
  EXPECT_EQ(a.stats.batches, b.stats.batches) << "shards=" << shards;
  EXPECT_EQ(a.stats.batch_keys, b.stats.batch_keys) << "shards=" << shards;
  EXPECT_EQ(a.messages_received, b.messages_received) << "shards=" << shards;
  EXPECT_EQ(a.decode_failures, b.decode_failures) << "shards=" << shards;
  EXPECT_EQ(a.stale_rejections, b.stale_rejections) << "shards=" << shards;
}

TEST(FaultPlaneEngineTest, KnobsOffReproducesPrePolicyRunExactly) {
  // A config with the fault-plane structs present but every gate off
  // (behavior disabled, inactive link policy, half-set quorum) must be
  // byte-identical to the plain config — no deadline events, no hooks, no
  // counter drift.
  const auto dataset = Dataset();
  const auto plain = RunFault(dataset, BaseConfig(), 1);
  auto off = BaseConfig();
  off.behavior.enabled = false;
  off.behavior.churn_rate = 0.9;  // irrelevant while disabled
  off.link = flow::LinkPolicy{};
  off.round_quorum = 5;  // deadline unset: policy must stay disengaged
  off.round_deadline = 0;
  const auto gated = RunFault(dataset, off, 1);
  ExpectOutcomesIdentical(plain, gated, 1);
  EXPECT_EQ(gated.result.skipped_unavailable, 0u);
  EXPECT_EQ(gated.result.rounds_degraded, 0u);
  EXPECT_EQ(gated.stats.retries, 0u);
}

TEST(FaultPlaneEngineTest, ChurnRetriesBitIdenticalAcrossShardWidths) {
  // THE acceptance gate: a fixed fault seed produces bit-identical runs at
  // widths 1/2/4/8 under simultaneous churn, transient failures and
  // retries — results, arrival logs, drop/retry counters, everything.
  const auto dataset = Dataset();
  const auto reference = RunFault(dataset, FaultConfig(), 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  // The config must actually exercise the plane, or the sweep proves
  // nothing.
  EXPECT_GT(reference.result.skipped_unavailable, 0u);
  EXPECT_GT(reference.stats.retries, 0u);
  EXPECT_GT(reference.stats.retry_successes, 0u);
  EXPECT_GT(reference.stats.dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    ExpectOutcomesIdentical(reference, RunFault(dataset, FaultConfig(), shards),
                            shards);
  }
}

TEST(FaultPlaneEngineTest, LegacyPlaneMatchesDecodedUnderFaults) {
  // Retried messages are fetched and decoded when the retry delivers
  // them. The run must still equal the golden digest the retired
  // decode-in-handler plane produced under the full fault ladder.
  const auto dataset = Dataset();
  for (const std::size_t shards : {1u, 4u}) {
    sim::EventLoop loop;
    auto config = FaultConfig();
    config.shards = shards;
    core::FlEngine engine(loop, dataset, std::move(config));
    const core::FlRunResult result = engine.Run();
    golden::ExpectGolden("fault_plane.fault_config",
                         golden::RunDigest(engine, result),
                         "shards=" + std::to_string(shards));
  }
}

TEST(FaultPlaneEngineTest, QuorumDeadlineDegradesRoundsGracefully) {
  // Sample-threshold trigger with an unreachable threshold: every round
  // closes through the deadline path. With quorum within reach, rounds
  // commit degraded instead of stalling out.
  const auto dataset = Dataset();
  auto config = FaultConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1000000;
  config.round_quorum = 10;
  config.round_deadline = Seconds(40.0);
  config.round_extension = Seconds(20.0);
  config.max_round_extensions = 1;
  const auto outcome = RunFault(dataset, config, 1);
  ASSERT_EQ(outcome.result.rounds.size(), 3u);
  EXPECT_EQ(outcome.result.rounds_degraded, 3u);
  EXPECT_EQ(outcome.result.rounds_aborted, 0u);
  for (const auto& round : outcome.result.rounds) {
    EXPECT_GE(round.clients, 10u);  // every commit carried quorum
  }
  golden::ExpectGolden("fault_plane.quorum_degraded", outcome.digest,
                       "shards=1");
  // Degradation under faults is ALSO width-invariant.
  for (const std::size_t shards : {2u, 4u}) {
    const auto sharded = RunFault(dataset, config, shards);
    ExpectOutcomesIdentical(outcome, sharded, shards);
    golden::ExpectGolden("fault_plane.quorum_degraded", sharded.digest,
                         "shards=" + std::to_string(shards));
  }
}

TEST(FaultPlaneEngineTest, QuorumNeverMetAbortsEveryRound) {
  const auto dataset = Dataset(24);
  auto config = BaseConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1000000;
  config.round_quorum = 500;  // larger than the fleet: unreachable
  config.round_deadline = Seconds(20.0);
  config.max_round_extensions = 1;
  const auto outcome = RunFault(dataset, config, 1);
  ASSERT_EQ(outcome.result.rounds.size(), 3u);
  EXPECT_EQ(outcome.result.rounds_aborted, 3u);
  EXPECT_EQ(outcome.result.rounds_degraded, 0u);
  EXPECT_EQ(outcome.result.rounds_extended, 3u);
  for (const auto& round : outcome.result.rounds) {
    EXPECT_EQ(round.clients, 0u);  // nothing aggregated
  }
  // Pins the abort path's empty-round close: times, evaluation rows and
  // the next round's anchor.
  golden::ExpectGolden("fault_plane.quorum_abort", outcome.digest);
}

TEST(FaultPlaneEngineTest, TraceReplayGatesParticipation) {
  // A Fig. 5-style trace pinning one device offline forever removes it
  // from every round; the rest of the fleet is untouched.
  const auto dataset = Dataset(32);
  auto config = BaseConfig();
  config.behavior.enabled = true;
  config.behavior.mean_availability = 1.0;  // only the trace gates
  sim::EventLoop loop;
  core::FlEngine engine(loop, dataset, config);
  ASSERT_NE(engine.behavior_model(), nullptr);
  const std::uint64_t victim = dataset.devices[0].device.value();
  auto events = device::ParseUsageTrace(
      std::to_string(0) + " " + std::to_string(victim) + " offline\n");
  ASSERT_TRUE(events.ok());
  engine.behavior_model()->LoadTrace(std::move(*events));
  const auto result = engine.Run();
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.skipped_unavailable, 3u);  // once per round
  // One device short per round, everyone else participated.
  EXPECT_EQ(result.messages_emitted, 3u * (dataset.devices.size() - 1));
}

TEST(FaultPlaneEngineTest, MidRunRegistrationViaChurnEvents) {
  // The churn schedule drives PhoneMgr membership: leavers unregister,
  // rejoiners register mid-run, and the fleet count tracks the edges.
  sim::EventLoop loop;
  device::PhoneMgr mgr(loop);
  const auto cluster = device::MakeDefaultCluster(42);
  mgr.RegisterFleet(cluster);
  const std::size_t fleet = mgr.TotalPhones();
  ASSERT_EQ(fleet, cluster.size());

  device::BehaviorConfig config;
  config.enabled = true;
  config.seed = 3;
  config.churn_rate = 0.4;
  config.churn_horizon = Seconds(100.0);
  config.rejoin_fraction = 0.5;
  config.churn_downtime = Seconds(30.0);
  device::BehaviorModel model(config);

  // Churn-schedule keys index into the cluster's spec list.
  const auto events =
      model.ChurnEventsBetween(cluster.size(), 0, Seconds(300.0));
  ASSERT_FALSE(events.empty());
  std::size_t live = fleet;
  for (const auto& event : events) {
    const device::PhoneSpec& spec = cluster[event.device_key];
    if (event.join) {
      ASSERT_EQ(mgr.FindPhone(spec.id), nullptr);  // it left earlier
      mgr.RegisterPhone(spec);
      ++live;
    } else {
      ASSERT_TRUE(mgr.UnregisterPhone(spec.id).ok()) << event.device_key;
      --live;
    }
    EXPECT_EQ(mgr.TotalPhones(), live);
  }
  EXPECT_LT(live, fleet);  // some leavers never rejoined
}

}  // namespace
}  // namespace simdc
