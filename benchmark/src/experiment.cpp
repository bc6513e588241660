#include "experiment.h"

#include <algorithm>
#include <string_view>

#include "common/det_hash.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/synth_avazu.h"

namespace simdc::bench {

namespace {

data::FederatedDataset Dataset(std::uint64_t seed, std::string_view tag,
                               std::size_t index, std::size_t devices,
                               double records, std::size_t test_devices,
                               std::uint32_t hash_dim) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = records;
  config.num_test_devices = test_devices;
  config.hash_dim = hash_dim;
  config.seed = DeterministicHash(seed, HashString(tag), index);
  return data::GenerateSyntheticAvazu(config);
}

/// Fields every single-task workload shares.
core::FlExperimentConfig SoloBase(std::uint64_t seed, std::size_t rounds,
                                  std::size_t pool_width) {
  core::FlExperimentConfig config;
  config.rounds = rounds;
  config.train.learning_rate = 0.05;
  config.train.epochs = 1;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(60.0);
  config.parallelism = pool_width;
  config.seed = seed;
  return config;
}

/// Payload plane at scale: many devices, little training, big payloads.
void FleetWide(Experiment& e, std::uint64_t seed, bool smoke,
               std::size_t pool_width) {
  e.datasets.push_back(Dataset(seed, e.workload, 0, smoke ? 300 : 10000, 4,
                               smoke ? 10 : 100, 1u << 12));
  e.solo = SoloBase(seed, smoke ? 4 : 12, pool_width);
  e.solo.strategy = flow::RealtimeAccumulated{
      {1}, 0.05, flow::kShardWidthInvariantCapacity};
  e.solo.shards = 4;
  e.solo.reclaim_payload_blobs = true;
}

/// Local training dominates; the only unsharded workload.
void TrainHeavy(Experiment& e, std::uint64_t seed, bool smoke,
                std::size_t pool_width) {
  e.datasets.push_back(Dataset(seed, e.workload, 0, smoke ? 60 : 1000,
                               smoke ? 40 : 300, smoke ? 4 : 20, 1u << 10));
  e.solo = SoloBase(seed, smoke ? 4 : 12, pool_width);
  e.solo.train.epochs = smoke ? 3 : 15;
  e.solo.logical_fraction = 0.5;
  e.solo.shards = 1;
}

/// Journaled store, int8 payloads and a churning, flaky fleet.
void DurableChurn(Experiment& e, std::uint64_t seed, bool smoke,
                  std::size_t pool_width, const std::string& durable_dir) {
  const std::size_t devices = smoke ? 200 : 4000;
  e.datasets.push_back(
      Dataset(seed, e.workload, 0, devices, 4, smoke ? 8 : 40, 1u << 11));
  core::FlExperimentConfig& c = e.solo;
  c = SoloBase(seed, smoke ? 4 : 12, pool_width);
  c.strategy = flow::RealtimeAccumulated{
      {1}, 0.05, flow::kShardWidthInvariantCapacity};
  c.shards = 4;
  c.payload_codec = ml::PayloadCodec::kInt8;
  c.reclaim_payload_blobs = true;
  c.durability.mode = persist::DurabilityMode::kLogCheckpoint;
  c.durability.dir = durable_dir;
  c.behavior.enabled = true;
  c.behavior.seed = HashCombine(seed, 0xbe4a);
  c.behavior.churn_rate = 0.2;
  c.behavior.rejoin_fraction = 0.5;
  c.behavior.diurnal_amplitude = 0.1;
  c.behavior.link_base_failure = 0.1;
  c.link.transient_failure_probability = 0.2;
  c.link.max_attempts = 3;
  c.link.upload_deadline = Seconds(40.0);
  c.round_quorum = devices / 2;
  c.round_deadline = Seconds(50.0);
  c.round_extension = Seconds(20.0);
  c.max_round_extensions = 1;
}

/// Mixed per-tenant policies: dropout, link retries, quorum deadlines.
core::FlExperimentConfig TenantConfig(std::uint64_t id, std::uint64_t seed,
                                      std::size_t rounds) {
  core::FlExperimentConfig config;
  config.task = TaskId(id);
  config.rounds = rounds;
  config.train.learning_rate = 0.05;
  config.train.epochs = 1;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.strategy = flow::RealtimeAccumulated{
      {1}, static_cast<double>(id % 3) * 0.1,
      flow::kShardWidthInvariantCapacity};
  config.shards = 2;
  config.reclaim_payload_blobs = true;
  config.seed = HashCombine(seed, id);
  if (id % 2 == 0) {
    config.link.transient_failure_probability = 0.3;
    config.link.max_attempts = 3;
    config.link.backoff_initial = Seconds(2.0);
    config.link.backoff_multiplier = 2.0;
    config.link.backoff_max = Seconds(20.0);
    config.link.upload_deadline = Seconds(25.0);
  }
  if (id % 3 == 0) {
    config.round_quorum = 5;
    config.round_deadline = Seconds(60.0);
    config.round_extension = Seconds(20.0);
    config.max_round_extensions = 1;
  }
  return config;
}

/// Many small tenants contending for a phone pool in admission waves.
void MultiTenant(Experiment& e, std::uint64_t seed, bool smoke) {
  constexpr std::size_t kDatasets = 4;
  for (std::size_t i = 0; i < kDatasets; ++i) {
    e.datasets.push_back(Dataset(seed, e.workload, i, smoke ? 40 : 200, 10,
                                 smoke ? 4 : 8, 1u << 10));
  }
  e.multi_tenant = true;
  const std::size_t tenants = smoke ? 8 : 128;
  const std::size_t rounds = smoke ? 2 : 8;
  e.logical_bundles = 100000;
  e.phones = {smoke ? 8u : 32u, smoke ? 8u : 32u};
  e.policy.mode = sched::ScheduleMode::kWeightedFair;
  for (std::uint64_t id = 1; id <= tenants; ++id) {
    core::TenantTask task;
    task.spec.id = TaskId(id);
    task.spec.name = "tenant-" + std::to_string(id);
    task.spec.priority = static_cast<int>(id % 7);
    task.spec.rounds = rounds;
    sched::DeviceRequirement requirement;
    requirement.grade = device::DeviceGrade::kHigh;
    requirement.num_devices = e.datasets[0].devices.size();
    requirement.phones = 2;
    requirement.logical_bundles = 10;
    task.spec.requirements.push_back(requirement);
    task.fl = TenantConfig(id, seed, rounds);
    task.dataset = &e.datasets[id % kDatasets];
    e.tenants.push_back(std::move(task));
  }
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return std::find(kWorkloads.begin(), kWorkloads.end(), name) !=
         kWorkloads.end();
}

std::size_t Experiment::RoundsConfigured() const {
  return multi_tenant ? tenants.front().fl.rounds : solo.rounds;
}

const data::FederatedDataset& Experiment::FirstDataset() const {
  return multi_tenant ? *tenants.front().dataset : datasets.front();
}

const core::FlExperimentConfig& Experiment::FirstConfig() const {
  return multi_tenant ? tenants.front().fl : solo;
}

Experiment MakeExperiment(const std::string& workload, std::uint64_t seed,
                          bool smoke, std::size_t pool_width,
                          const std::string& durable_dir) {
  SIMDC_CHECK(IsWorkload(workload), "unknown workload " << workload);
  Experiment e;
  e.workload = workload;
  if (workload == "fleet_wide") {
    FleetWide(e, seed, smoke, pool_width);
  } else if (workload == "train_heavy") {
    TrainHeavy(e, seed, smoke, pool_width);
  } else if (workload == "durable_churn") {
    DurableChurn(e, seed, smoke, pool_width, durable_dir);
  } else {
    MultiTenant(e, seed, smoke);
  }
  return e;
}

}  // namespace simdc::bench
