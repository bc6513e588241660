// Cross-module integration tests: the full measurement pipeline
// (phones → ADB → parsers → cloud DB → Table-I-style aggregates), the
// full traffic pipeline (training → DeviceFlow curves → aggregation), and
// the paper's headline claims at reduced scale.
#include <gtest/gtest.h>

#include <cmath>

#include "cloud/database.h"
#include "common/stats.h"
#include "core/fl_engine.h"
#include "core/platform.h"
#include "data/synth_avazu.h"
#include "flow/rate_functions.h"

namespace simdc {
namespace {

using core::FlExperimentConfig;
using core::Platform;

// ---------- Table I pipeline at reduced scale ----------

TEST(IntegrationTest, BenchmarkingPipelineReproducesTableIShape) {
  Platform platform;
  sched::TaskSpec task;
  task.rounds = 1;
  for (const auto grade :
       {device::DeviceGrade::kHigh, device::DeviceGrade::kLow}) {
    sched::DeviceRequirement requirement;
    requirement.grade = grade;
    requirement.num_devices = 20;
    requirement.benchmarking_phones = 2;
    requirement.logical_bundles = grade == device::DeviceGrade::kHigh ? 80 : 40;
    requirement.phones = 3;
    task.requirements.push_back(requirement);
  }
  ASSERT_TRUE(platform.SubmitTask(task).ok());
  core::ExecOptions options;
  options.sample_period = Seconds(1.0);
  const auto reports = platform.RunQueuedTasks(options);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].ok);

  // Aggregate per grade: High in requirement 0, Low in requirement 1.
  const auto high = platform.metrics().AverageStages(
      reports[0].id, reports[0].benchmarking[0]);
  const auto low = platform.metrics().AverageStages(
      reports[0].id, reports[0].benchmarking[1]);
  ASSERT_GE(high.size(), 4u);
  ASSERT_GE(low.size(), 4u);

  auto energy_of = [](const std::vector<cloud::StageAggregate>& stages,
                      device::ApkStage stage) {
    for (const auto& s : stages) {
      if (s.stage == stage) return s.energy_mah;
    }
    return -1.0;
  };
  // Table I's headline: Low-grade devices burn several times more energy
  // in every stage, and training shows real communication volume.
  for (const auto stage :
       {device::ApkStage::kApkLaunch, device::ApkStage::kTraining,
        device::ApkStage::kPostTraining}) {
    const double high_e = energy_of(high, stage);
    const double low_e = energy_of(low, stage);
    ASSERT_GT(high_e, 0.0);
    ASSERT_GT(low_e, 0.0);
    EXPECT_GT(low_e, 2.0 * high_e) << "stage " << static_cast<int>(stage);
  }
  for (const auto& stages : {high, low}) {
    double training_comm = 0.0;
    for (const auto& s : stages) {
      if (s.stage == device::ApkStage::kTraining) training_comm = s.comm_kb;
    }
    EXPECT_GT(training_comm, 20.0);  // ≈33 KB in the paper
  }
}

// ---------- Fig. 9 mechanism: traffic curve σ changes aggregation ----------

TEST(IntegrationTest, SmallerSigmaAggregatesFasterUnderThreshold) {
  data::SynthConfig data_config;
  data_config.num_devices = 200;
  data_config.records_per_device_mean = 12;
  data_config.hash_dim = 1u << 12;
  data_config.seed = 3;
  const auto dataset = data::GenerateSyntheticAvazu(data_config);

  auto first_round_time = [&](double sigma) {
    sim::EventLoop loop;
    FlExperimentConfig config;
    config.rounds = 1;
    config.train.epochs = 1;
    config.trigger = cloud::AggregationTrigger::kSampleThreshold;
    config.sample_threshold =
        static_cast<std::size_t>(0.6 * static_cast<double>(dataset.TotalExamples()));
    config.compute_seconds = 1.0;
    // Right-tailed normal delays scaled to minutes (Fig. 9 construction);
    // faster (higher-CTR) devices get the small quantiles.
    config.delay_fn = [sigma](const data::DeviceData& device, std::size_t,
                              Rng& rng) {
      (void)device;
      return Minutes(std::abs(rng.Normal(0.0, sigma)));
    };
    core::FlEngine engine(loop, dataset, config);
    const auto result = engine.Run();
    EXPECT_EQ(result.rounds.size(), 1u);
    return result.rounds.empty() ? SimTime(0) : result.rounds[0].time;
  };

  const SimTime t1 = first_round_time(1.0);
  const SimTime t2 = first_round_time(2.0);
  const SimTime t3 = first_round_time(3.0);
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
}

// ---------- Fig. 11 mechanism: dropout × data distribution ----------

TEST(IntegrationTest, DropoutHurtsOnlyNonIid) {
  data::SynthConfig data_config;
  data_config.num_devices = 200;
  data_config.records_per_device_mean = 25;
  data_config.hash_dim = 1u << 12;
  data_config.distribution = data::LabelDistribution::kPolarized;
  data_config.seed = 9;
  const auto noniid = data::GenerateSyntheticAvazu(data_config);
  const auto iid = data::RepartitionIid(noniid, 17);

  auto run = [](const data::FederatedDataset& dataset, double dropout) {
    sim::EventLoop loop;
    FlExperimentConfig config;
    config.rounds = 10;
    config.train.epochs = 4;
    config.train.learning_rate = 0.1;
    config.trigger = cloud::AggregationTrigger::kScheduled;
    config.schedule_period = Seconds(30.0);
    config.strategy = flow::RealtimeAccumulated{{1}, dropout};
    config.seed = 11;
    core::FlEngine engine(loop, dataset, config);
    return engine.Run();
  };
  auto final_accuracy = [](const core::FlRunResult& result) {
    return result.rounds.back().test_accuracy;
  };
  // Round-to-round volatility over the convergence phase — the paper's
  // Fig. 11b observation is that dropout makes non-IID convergence
  // "increasingly unstable".
  auto volatility = [](const core::FlRunResult& result) {
    RunningStats deltas;
    for (std::size_t i = 4; i < result.rounds.size(); ++i) {
      deltas.Add(std::abs(result.rounds[i].test_accuracy -
                          result.rounds[i - 1].test_accuracy));
    }
    return deltas.mean();
  };

  // IID: dropout barely matters (Fig. 11a).
  const auto iid_clean = run(iid, 0.0);
  const auto iid_dropped = run(iid, 0.7);
  EXPECT_NEAR(final_accuracy(iid_clean), final_accuracy(iid_dropped), 0.06);

  // Non-IID: heavy dropout destabilizes convergence (Fig. 11b).
  const auto noniid_clean = run(noniid, 0.0);
  const auto noniid_dropped = run(noniid, 0.9);
  EXPECT_GT(volatility(noniid_dropped), 1.5 * volatility(noniid_clean));
  // And IID stays stable even when dropped.
  EXPECT_LT(volatility(iid_dropped), volatility(noniid_dropped));
}

// ---------- Fig. 10 / Table II: full interval-dispatch chain ----------

TEST(IntegrationTest, IntervalDispatchTracksCurveThroughFullStack) {
  sim::EventLoop loop;
  flow::DeviceFlow device_flow(loop);

  struct CountingEndpoint final : flow::CloudEndpoint {
    std::vector<std::pair<SimTime, std::size_t>> arrivals;
    void DeliverTick(std::vector<flow::Message> tick) override {
      for (const flow::Message& message : tick) {
        const SimTime arrival = message.arrival;
        if (!arrivals.empty() &&
            arrivals.back().first / Seconds(1.0) == arrival / Seconds(1.0)) {
          arrivals.back().second++;
        } else {
          arrivals.emplace_back(arrival, 1);
        }
      }
    }
  } endpoint;

  flow::TimeIntervalDispatch strategy;
  strategy.rate = flow::NormalCurve(1.0);
  strategy.interval = Minutes(1.0);
  ASSERT_TRUE(
      device_flow.ConfigureTask(TaskId(1), strategy, &endpoint).ok());

  const std::size_t total = 10000;
  for (std::uint64_t i = 0; i < total; ++i) {
    flow::Message m;
    m.id = MessageId(i);
    m.task = TaskId(1);
    ASSERT_TRUE(device_flow.OnMessage(std::move(m)).ok());
  }
  ASSERT_TRUE(device_flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();

  std::size_t received = 0;
  for (const auto& [at, n] : endpoint.arrivals) received += n;
  EXPECT_EQ(received, total);

  // Correlate per-second arrivals with the user curve (Table II ≥ 0.99;
  // allow a little slack for capacity-limit smearing at the peak).
  std::vector<double> counts(60, 0.0), expected(60, 0.0);
  for (const auto& [at, n] : endpoint.arrivals) {
    const auto second = static_cast<std::size_t>(ToSeconds(at));
    if (second < 60) counts[second] += static_cast<double>(n);
  }
  const auto curve = flow::NormalCurve(1.0);
  for (std::size_t s = 0; s < 60; ++s) {
    const double t = curve.domain_lo +
                     curve.domain_width() * (static_cast<double>(s) + 0.5) / 60.0;
    expected[s] = curve(t);
  }
  EXPECT_GT(PearsonCorrelation(counts, expected), 0.98);
}

// ---------- Quickstart-equivalent happy path ----------

TEST(IntegrationTest, QuickstartPipeline) {
  Platform platform;
  // 1. Queue and execute a hybrid task.
  sched::TaskSpec task;
  sched::DeviceRequirement requirement;
  requirement.grade = device::DeviceGrade::kHigh;
  requirement.num_devices = 25;
  requirement.benchmarking_phones = 1;
  requirement.logical_bundles = 80;
  requirement.phones = 2;
  task.requirements.push_back(requirement);
  ASSERT_TRUE(platform.SubmitTask(task).ok());
  const auto reports = platform.RunQueuedTasks();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].ok);

  // 2. Run a small FL experiment on the same platform.
  data::SynthConfig data_config;
  data_config.num_devices = 50;
  data_config.hash_dim = 1u << 12;
  const auto dataset = data::GenerateSyntheticAvazu(data_config);
  FlExperimentConfig fl;
  fl.rounds = 2;
  fl.train.epochs = 2;
  fl.trigger = cloud::AggregationTrigger::kScheduled;
  fl.schedule_period = Seconds(20.0);
  const auto result = platform.RunFlExperiment(dataset, fl);
  EXPECT_EQ(result.rounds.size(), 2u);
}

}  // namespace
}  // namespace simdc
