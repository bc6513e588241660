// Quickstart: the smallest end-to-end SimDC session.
//
//   1. Build a Platform (logical cluster + the paper's default physical
//      phone cluster).
//   2. Submit a task simulating 60 High-grade devices with hybrid
//      resources and one benchmarking phone; the greedy scheduler and
//      hybrid allocation optimizer place it.
//   3. Inspect the allocation, execution time, and the physical metrics
//      PhoneMgr collected over ADB.
//   4. Run a small federated-learning experiment (synthetic Avazu CTR
//      data, LR + FedAvg) through DeviceFlow to the cloud aggregator.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/platform.h"
#include "data/synth_avazu.h"

int main() {
  using namespace simdc;

  // --- 1. The platform ---
  core::PlatformConfig platform_config;
  platform_config.logical_unit_bundles = 200;  // ~200 cores / 300 GB
  core::Platform platform(platform_config);

  // --- 2. A hybrid device-simulation task ---
  sched::TaskSpec task;
  task.name = "quickstart-hybrid";
  task.priority = 5;
  task.rounds = 2;
  sched::DeviceRequirement requirement;
  requirement.grade = device::DeviceGrade::kHigh;
  requirement.num_devices = 60;       // N: simulated devices
  requirement.benchmarking_phones = 1;  // q: measured physical phone
  requirement.logical_bundles = 80;   // f: unit bundles requested
  requirement.phones = 3;             // m: computing phones requested
  task.requirements.push_back(requirement);
  if (auto submitted = platform.SubmitTask(task); !submitted.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 submitted.ToString().c_str());
    return 1;
  }

  const auto reports = platform.RunQueuedTasks();
  for (const auto& report : reports) {
    std::printf("task %s: %s in %.1f virtual seconds\n",
                report.id.ToString().c_str(), report.ok ? "completed" : "FAILED",
                report.elapsed_seconds());
    std::printf("  optimizer put %zu of %zu devices on Logical Simulation "
                "(Tl=%.1fs, Tp=%.1fs)\n",
                report.allocation.logical_devices[0],
                requirement.num_devices - requirement.benchmarking_phones,
                report.allocation.logical_seconds,
                report.allocation.device_seconds);

    // --- 3. Physical metrics measured through ADB ---
    for (const auto& phones : report.benchmarking) {
      const auto stages = platform.metrics().AverageStages(report.id, phones);
      for (const auto& stage : stages) {
        std::printf("  stage %d (%s): %.2f mAh over %.2f min, %.1f KB comm\n",
                    static_cast<int>(stage.stage), ToString(stage.stage),
                    stage.energy_mah, stage.duration_min, stage.comm_kb);
      }
    }
  }

  // --- 4. A small FL experiment ---
  data::SynthConfig data_config;
  data_config.num_devices = 100;
  data_config.hash_dim = 1u << 13;
  const auto dataset = data::GenerateSyntheticAvazu(data_config);

  core::FlExperimentConfig fl;
  fl.rounds = 5;
  fl.train.learning_rate = 0.05;
  fl.train.epochs = 3;
  fl.trigger = cloud::AggregationTrigger::kScheduled;
  fl.schedule_period = Seconds(30.0);
  // Train clients on 2 workers; any parallelism gives bit-identical results.
  fl.parallelism = 2;
  // Split the device population into 2 fleet shards: each shard runs its
  // own dispatcher/event loop (advanced on the worker pool) and a
  // deterministic merger funnels their batches into the one aggregator —
  // same bits as shards = 1, at any width. Width-invariance requires the
  // rate limiter disengaged (see FlExperimentConfig::shards), so pass-
  // through dispatch runs at infinite capacity here.
  fl.strategy = flow::RealtimeAccumulated{
      {1}, 0.0, flow::kShardWidthInvariantCapacity};
  fl.shards = 2;
  // The cloud fetches and decodes each payload blob when it admits the
  // message, and the admitted updates accumulate as per-lane partial sums
  // on the worker pool, merged in fixed ascending order — the FedAvg
  // cascade is order-invariant, so the bits match a serial sum.
  const auto result = platform.RunFlExperiment(dataset, fl);
  std::printf("\nfederated learning (%zu devices, %zu rounds, 2 fleet "
              "shards):\n",
              dataset.devices.size(), result.rounds.size());
  for (const auto& round : result.rounds) {
    std::printf("  round %zu @ %5.1fs: test acc %.4f, logloss %.4f "
                "(%zu clients)\n",
                round.round, ToSeconds(round.time), round.test_accuracy,
                round.test_logloss, round.clients);
  }
  return 0;
}
