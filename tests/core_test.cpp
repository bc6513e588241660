// Tests for the FL engine and the Platform facade.
#include <gtest/gtest.h>

#include <set>

#include "core/fl_engine.h"
#include "core/platform.h"
#include "data/synth_avazu.h"
#include "device/fleet.h"
#include "flow/rate_functions.h"
#include "golden_digest.h"

namespace simdc::core {
namespace {

data::FederatedDataset SmallDataset(
    data::LabelDistribution distribution = data::LabelDistribution::kNatural,
    std::size_t devices = 100) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = 15;
  config.num_test_devices = 15;
  config.hash_dim = 1u << 12;
  config.distribution = distribution;
  config.seed = 21;
  return data::GenerateSyntheticAvazu(config);
}

FlExperimentConfig BaseConfig() {
  FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 3;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.compute_seconds = 2.0;
  config.seed = 5;
  return config;
}

// ---------- FlEngine ----------

TEST(FlEngineTest, CompletesConfiguredRounds) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  FlEngine engine(loop, dataset, BaseConfig());
  const auto result = engine.Run();
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.rounds[0].round, 1u);
  EXPECT_EQ(result.rounds[2].round, 3u);
  EXPECT_EQ(result.model_dim, dataset.hash_dim);
  // Every device reported each round (no dropout, schedule slower than
  // slowest device).
  EXPECT_EQ(result.rounds[0].clients, dataset.devices.size());
  EXPECT_EQ(result.messages_emitted, 3 * dataset.devices.size());
  EXPECT_EQ(result.messages_dropped, 0u);
}

TEST(FlEngineTest, LearningImprovesLoss) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 150);
  auto config = BaseConfig();
  config.rounds = 6;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_EQ(result.rounds.size(), 6u);
  // Test log-loss after 6 rounds beats the untrained ln(2) baseline.
  EXPECT_LT(result.rounds.back().test_logloss, 0.69);
  EXPECT_LT(result.rounds.back().test_logloss,
            result.rounds.front().test_logloss + 1e-6);
}

TEST(FlEngineTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::EventLoop loop;
    const auto dataset = SmallDataset();
    FlEngine engine(loop, dataset, BaseConfig());
    return engine.Run();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].time, b.rounds[i].time);
    EXPECT_DOUBLE_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
  }
  EXPECT_EQ(a.final_weights, b.final_weights);
}

TEST(FlEngineTest, SampleThresholdTriggerCountsSamples) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = dataset.TotalExamples() / 2;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_GE(result.rounds.size(), 1u);
  for (const auto& round : result.rounds) {
    if (round.clients > 0) {
      EXPECT_GE(round.samples, config.sample_threshold);
    }
  }
}

TEST(FlEngineTest, TimeWindowStopsEarly) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.rounds = 1000;
  config.time_window = Minutes(2.0);
  config.schedule_period = Seconds(30.0);
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  // ~4 aggregations fit into 2 minutes at a 30 s period.
  EXPECT_GE(result.rounds.size(), 2u);
  EXPECT_LE(result.rounds.size(), 6u);
}

TEST(FlEngineTest, DropoutReducesClients) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{1}, 0.7};
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_GT(result.messages_dropped, 0u);
  for (const auto& round : result.rounds) {
    EXPECT_LT(round.clients, dataset.devices.size());
  }
}

TEST(FlEngineTest, FullDropoutSurvivesViaStallGuard) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 30);
  auto config = BaseConfig();
  config.rounds = 2;
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1000000;  // unreachable
  config.strategy = flow::RealtimeAccumulated{{1}, 1.0};  // drop everything
  config.stall_timeout = Seconds(30.0);
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  // Rounds recorded as empty instead of hanging.
  ASSERT_EQ(result.rounds.size(), 2u);
  EXPECT_EQ(result.rounds[0].clients, 0u);
  // Pins the stall guard's empty-round close: times, evaluation rows and
  // the next round's anchor.
  golden::ExpectGolden("core.stall_guard", golden::RunDigest(engine, result));
}

TEST(FlEngineTest, ReclaimedStragglersAreDecodeFailuresNotUpdates) {
  // reclaim_payload_blobs deletes a round's payloads when the next round
  // opens, and the cloud fetches a payload when it admits the message, so
  // a straggler admitted after its round's reclaim is a decode failure and
  // never reaches an aggregate. Here all 20 devices upload 2 s into each
  // round, one sender lets 2 messages a second leave, and a round closes
  // every 5 s: each round admits its first 6 uploads, and the other 14 are
  // still queued when the next round's reclaim deletes their payloads.
  sim::EventLoop loop;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 20);
  auto config = BaseConfig();
  config.rounds = 3;
  config.schedule_period = Seconds(5.0);
  config.compute_seconds = 2.0;
  config.delay_fn = [](const data::DeviceData&, std::size_t, Rng&) {
    return SimDuration{0};
  };
  config.strategy = flow::RealtimeAccumulated{{1}, 0.0, 2.0};
  config.reclaim_payload_blobs = true;
  config.parallelism = 1;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  const cloud::AggregationService& service = engine.runtime().aggregation();

  // Round 0 admits the uploads sent at 2.0–4.5 s and closes at 5 s. Its
  // 14 stragglers occupy the sender until 12 s and fail, so the 10 s
  // schedule finds nothing to aggregate; round 1's uploads leave at
  // 12.0–14.5 s and close it at 15 s. Round 2 repeats that 10 s later.
  const std::vector<SimTime> times = {Seconds(5.0), Seconds(15.0),
                                      Seconds(25.0)};
  ASSERT_EQ(service.history().size(), times.size());
  std::size_t aggregated = 0;
  for (std::size_t r = 0; r < times.size(); ++r) {
    EXPECT_EQ(service.history()[r].time, times[r]) << "round " << r;
    EXPECT_EQ(service.history()[r].clients, 6u) << "round " << r;
    aggregated += service.history()[r].clients;
  }
  EXPECT_EQ(service.decode_failures(), 2u * 14u);
  EXPECT_EQ(service.stale_rejections(), 0u);
  EXPECT_EQ(service.messages_received(),
            aggregated + service.decode_failures());
  ASSERT_EQ(result.rounds.size(), 3u);
}

TEST(FlEngineTest, WidthOneRunsAsOneShardBehindTheMerger) {
  // Every width takes the same topology: width 1 is one shard loop with
  // one dispatcher feeding the merger, like any other width.
  sim::EventLoop loop;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 30);
  auto config = BaseConfig();
  config.shards = 1;
  FlEngine engine(loop, dataset, config);
  EXPECT_EQ(engine.shards(), 1u);
  EXPECT_EQ(engine.runtime().ShardLoops().size(), 1u);
  EXPECT_NE(engine.runtime().merger(), nullptr);
}

TEST(FlEngineTest, PartialParticipation) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.participants_per_round = 20;
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_FALSE(result.rounds.empty());
  for (const auto& round : result.rounds) {
    EXPECT_LE(round.clients, 20u);
    EXPECT_GT(round.clients, 0u);
  }
}

TEST(FlEngineTest, CustomDelayFnShapesRoundDuration) {
  sim::EventLoop loop;
  const auto dataset = SmallDataset();
  auto config = BaseConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = dataset.TotalExamples() - 1;
  config.rounds = 2;
  config.delay_fn = [](const data::DeviceData&, std::size_t, Rng& rng) {
    return Seconds(rng.Uniform(100.0, 200.0));
  };
  FlEngine engine(loop, dataset, config);
  const auto result = engine.Run();
  ASSERT_GE(result.rounds.size(), 1u);
  // Threshold needs nearly all devices → round closes only after the slow
  // tail arrived (≥100 s + compute).
  EXPECT_GE(result.rounds[0].time, Seconds(100.0));
}

TEST(FlEngineTest, HybridMixMatchesPureWithinHalfPercent) {
  // Core premise of Fig. 6: the operator mix induced by the allocation
  // ratio must not change accuracy materially.
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 120);
  auto run_with_fraction = [&](double fraction) {
    sim::EventLoop loop;
    auto config = BaseConfig();
    config.rounds = 4;
    config.logical_fraction = fraction;
    FlEngine engine(loop, dataset, config);
    return engine.Run().rounds.back().test_accuracy;
  };
  const double pure_logical = run_with_fraction(1.0);
  for (const double fraction : {0.75, 0.5, 0.25, 0.0}) {
    EXPECT_NEAR(run_with_fraction(fraction), pure_logical, 0.005)
        << "fraction=" << fraction;
  }
}

// ---------- Platform ----------

TEST(PlatformTest, RegistersTheDefaultClusterAndCountsItsPhones) {
  PlatformConfig config;
  config.seed = 7;
  Platform platform(config);
  const std::vector<device::PhoneSpec> cluster =
      device::MakeDefaultCluster(config.seed);
  ASSERT_EQ(cluster.size(), 30u);
  EXPECT_EQ(platform.phone_mgr().TotalPhones(), cluster.size());
  for (const device::PhoneSpec& want : cluster) {
    const device::Phone* phone = platform.phone_mgr().FindPhone(want.id);
    ASSERT_NE(phone, nullptr) << want.id.ToString();
    const device::PhoneSpec& got = phone->spec();
    EXPECT_EQ(got.grade, want.grade) << want.id.ToString();
    EXPECT_EQ(got.remote_msp, want.remote_msp) << want.id.ToString();
    EXPECT_EQ(got.model, want.model) << want.id.ToString();
    EXPECT_EQ(got.memory_gb, want.memory_gb) << want.id.ToString();
    EXPECT_EQ(got.cpu_freq_ghz, want.cpu_freq_ghz) << want.id.ToString();
    EXPECT_EQ(got.has_npu, want.has_npu) << want.id.ToString();
    EXPECT_EQ(got.seed, want.seed) << want.id.ToString();
  }
  const auto snapshot = platform.resources().Snapshot();
  const std::size_t high = device::GradeIndex(device::DeviceGrade::kHigh);
  const std::size_t low = device::GradeIndex(device::DeviceGrade::kLow);
  EXPECT_EQ(snapshot.phones_total[high], 17u);
  EXPECT_EQ(snapshot.phones_total[low], 13u);
  EXPECT_EQ(snapshot.phones_free[high], 17u);
  EXPECT_EQ(snapshot.phones_free[low], 13u);
}

TEST(PlatformTest, AssignsUniqueTaskIds) {
  Platform platform;
  const TaskId a = platform.NextTaskId();
  const TaskId b = platform.NextTaskId();
  EXPECT_NE(a, b);
}

sched::TaskSpec SimpleTask(std::size_t devices, int priority = 0) {
  sched::TaskSpec task;
  task.priority = priority;
  task.rounds = 1;
  sched::DeviceRequirement requirement;
  requirement.grade = device::DeviceGrade::kHigh;
  requirement.num_devices = devices;
  requirement.benchmarking_phones = 1;
  requirement.logical_bundles = 80;
  requirement.phones = 3;
  task.requirements.push_back(requirement);
  return task;
}

TEST(PlatformTest, ExecutesQueuedTaskEndToEnd) {
  Platform platform;
  ASSERT_TRUE(platform.SubmitTask(SimpleTask(40)).ok());
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_GT(reports[0].finished, reports[0].started);
  EXPECT_EQ(reports[0].allocation.logical_devices.size(), 1u);
  // Resources fully released afterwards.
  const auto snapshot = platform.resources().Snapshot();
  EXPECT_EQ(snapshot.logical_bundles_free, snapshot.logical_bundles_total);
  EXPECT_EQ(snapshot.phones_free[0], snapshot.phones_total[0]);
}

TEST(PlatformTest, BenchmarkingSamplesCollected) {
  Platform platform;
  auto task = SimpleTask(30);
  ASSERT_TRUE(platform.SubmitTask(task).ok());
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].benchmarking.size(), 1u);
  ASSERT_EQ(reports[0].benchmarking[0].size(), 1u);
  const auto samples = platform.metrics().QueryTask(reports[0].id);
  EXPECT_FALSE(samples.empty());
}

TEST(PlatformTest, PriorityOrderUnderContention) {
  Platform platform;
  // Each task wants 3 + 1 High phones; 17 exist, so ~4 fit concurrently;
  // submit 6 tasks with distinct priorities and confirm the two overflow
  // tasks ran in priority order (they appear later in the reports).
  std::vector<TaskId> ids;
  for (int p = 0; p < 6; ++p) {
    auto task = SimpleTask(30, /*priority=*/p);
    task.id = platform.NextTaskId();
    ids.push_back(task.id);
    ASSERT_TRUE(platform.SubmitTask(task).ok());
  }
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 6u);
  for (const auto& report : reports) EXPECT_TRUE(report.ok);
  // All tasks eventually completed exactly once.
  std::set<std::uint64_t> seen;
  for (const auto& report : reports) seen.insert(report.id.value());
  EXPECT_EQ(seen.size(), 6u);
}

TEST(PlatformTest, RejectedTaskIsReported) {
  // A task that can never fit the platform is refused by admission
  // control; RunQueuedTasks must report it as failed instead of dropping
  // it, next to the task that ran.
  Platform platform;
  auto fits = SimpleTask(40);
  fits.id = platform.NextTaskId();
  auto too_big = SimpleTask(40);
  too_big.id = platform.NextTaskId();
  too_big.requirements[0].logical_bundles = 100000;
  ASSERT_TRUE(platform.SubmitTask(fits).ok());
  ASSERT_TRUE(platform.SubmitTask(too_big).ok());
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(platform.queue().size(), 0u);
  std::size_t rejected = 0;
  for (const auto& report : reports) {
    if (report.id == too_big.id) {
      ++rejected;
      EXPECT_FALSE(report.ok);
      EXPECT_FALSE(report.detail.empty());
      EXPECT_EQ(report.started, report.finished);
    } else {
      EXPECT_EQ(report.id, fits.id);
      EXPECT_TRUE(report.ok);
    }
  }
  EXPECT_EQ(rejected, 1u);
}

TEST(PlatformTest, FixedRatioExecution) {
  Platform platform;
  ASSERT_TRUE(platform.SubmitTask(SimpleTask(40)).ok());
  ExecOptions options;
  options.use_optimizer = false;
  options.fixed_logical_ratio = 1.0;
  const auto reports = platform.RunQueuedTasks(options);
  ASSERT_EQ(reports.size(), 1u);
  // All placeable devices went logical.
  EXPECT_EQ(reports[0].allocation.logical_devices[0], 39u);
}

TEST(PlatformTest, OptimizerNotSlowerThanFixedRatios) {
  // Fig. 7 end-to-end: optimized allocation completes no later than the
  // five fixed types on the same platform.
  auto run = [](bool optimizer, double ratio) {
    Platform platform;
    auto task = SimpleTask(60);
    EXPECT_TRUE(platform.SubmitTask(task).ok());
    ExecOptions options;
    options.use_optimizer = optimizer;
    options.fixed_logical_ratio = ratio;
    options.aggregation_wait_s = 0.0;
    const auto reports = platform.RunQueuedTasks(options);
    EXPECT_EQ(reports.size(), 1u);
    return reports[0].elapsed_seconds();
  };
  const double optimized = run(true, 0.0);
  for (const double ratio : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    // Allow the constant closure overhead (15 s) shared by both paths.
    EXPECT_LE(optimized, run(false, ratio) + 1e-6) << "ratio=" << ratio;
  }
}

TEST(PlatformTest, RunFlExperimentThroughFacade) {
  Platform platform;
  const auto dataset = SmallDataset(data::LabelDistribution::kNatural, 60);
  auto config = BaseConfig();
  config.rounds = 2;
  const auto result = platform.RunFlExperiment(dataset, config);
  EXPECT_EQ(result.rounds.size(), 2u);
}

}  // namespace
}  // namespace simdc::core
