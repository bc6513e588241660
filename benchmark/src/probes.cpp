#include "probes.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <tuple>

#include "cloud/storage.h"
#include "common/det_hash.h"
#include "common/stats.h"
#include "ml/fedavg.h"
#include "ml/metrics.h"
#include "ml/operators.h"
#include "persist/blob_log.h"
#include "persist/checkpoint.h"
#include "sched/scheduler.h"
#include "sim/event_loop.h"

namespace simdc::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxSamples = 200;
/// A sample times a batch of calls grown until it spans at least this.
constexpr double kMinSampleNs = 20e3;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Times probes within a wall budget each; every probe still takes at
/// least `min_samples` samples.
struct Sampler {
  double budget_s;
  std::size_t min_samples;

  /// Median host µs per call. `reset` runs untimed before every sample;
  /// unbatched probes time exactly one call per sample.
  template <typename Call, typename Reset>
  double MedianUs(Call&& call, Reset&& reset, bool batched = true) const {
    reset();
    call();  // warm caches and lazy state
    std::size_t batch = 1;
    auto sample = [&] {
      reset();
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < batch; ++i) call();
      return NsSince(start);
    };
    while (batched && batch < 4096 && sample() < kMinSampleNs) batch *= 2;
    std::vector<double> per_call_us;
    const Clock::time_point start = Clock::now();
    while (per_call_us.size() < kMaxSamples &&
           (per_call_us.size() < min_samples ||
            NsSince(start) < budget_s * 1e9)) {
      per_call_us.push_back(sample() / static_cast<double>(batch) / 1e3);
    }
    return Percentile(per_call_us, 50.0);
  }

  double MedianUs(const std::function<void()>& call) const {
    return MedianUs(call, [] {});
  }
};

}  // namespace

std::vector<Probe> RunProbes(const Experiment& e, const Outcome& run,
                             const std::string& scratch_dir, bool quick) {
  const Sampler sampler{quick ? 0.005 : 0.15, quick ? 2u : 10u};
  const data::FederatedDataset& dataset = e.FirstDataset();
  const core::FlExperimentConfig& config = e.FirstConfig();
  const Counters& c = run.counters;
  const double rounds = std::max<double>(1.0, static_cast<double>(run.rounds));
  std::filesystem::create_directories(scratch_dir);
  persist::FileIo& io = persist::RealFileIo::Instance();

  ml::LrModel model(dataset.hash_dim);
  if (run.weights.size() == model.dim()) {
    std::copy(run.weights.begin(), run.weights.end(), model.weights().begin());
    model.bias() = run.bias;
  }
  std::vector<std::byte> payload(model.EncodedSize(config.payload_codec));
  model.EncodeTo(payload, config.payload_codec);

  std::vector<Probe> probes;
  auto add = [&](std::string name, const char* unit, double us, double calls,
                 bool parallel, const char* explains) {
    const double value = std::string(unit) == "ms" ? us / 1e3 : us;
    probes.push_back(
        Probe{std::move(name), unit, value, calls / rounds, parallel, explains});
  };

  // ml: one participant's local training (model copy + Train), per venue.
  for (const auto& [venue, name, calls] :
       {std::tuple{ml::OperatorVenue::kServer, "ml.train_server_us",
                   c.logical_participants},
        std::tuple{ml::OperatorVenue::kMobile, "ml.train_mobile_us",
                   c.participants - c.logical_participants}}) {
    std::size_t next = 0;
    const ml::OperatorVenue v = venue;
    const double us = sampler.MedianUs([&] {
      const data::DeviceData& device =
          dataset.devices[next++ % dataset.devices.size()];
      ml::LrModel local = model;
      ml::MakeLrOperator(v)->Train(local, device.examples, config.train);
    });
    add(name, "us", us, calls, true, "core.round_turn_ms");
  }

  std::vector<std::byte> scratch(payload.size());
  add("ml.encode_us", "us",
      sampler.MedianUs([&] { model.EncodeTo(scratch, config.payload_codec); }),
      c.participants, true, "core.round_turn_ms");
  add("ml.decode_us", "us",
      sampler.MedianUs([&] { (void)ml::LrModel::FromBytesShared(payload); }), c.sent,
      true, "flow.dispatch_ms");
  {
    ml::FedAvgAggregator aggregator(model.dim());
    add("ml.fedavg_add_us", "us",
        sampler.MedianUs([&] { (void)aggregator.Add(model, 4); }),
        static_cast<double>(run.updates), true, "cloud.deliver_ms");
  }
  {
    // The train-evaluation pool the engine scores every round: the first
    // eval_cap examples of the device shards.
    std::vector<data::Example> pool;
    for (const data::DeviceData& device : dataset.devices) {
      for (const data::Example& example : device.examples) {
        if (pool.size() < config.eval_cap) pool.push_back(example);
      }
    }
    add("ml.evaluate_ms", "ms",
        sampler.MedianUs([&] { (void)ml::Evaluate(model, pool); }), rounds, false,
        "core.round_turn_ms");
  }

  // cloud: pooled payload put and the shard-side shared read.
  {
    cloud::BlobStore store;
    std::vector<BlobId> ids;
    const double put_us = sampler.MedianUs(
        [&] { ids.push_back(store.PutPooled(payload)); },
        [&] {
          for (const BlobId id : ids) (void)store.Delete(id);
          ids.clear();
          (void)store.ReclaimArena();
        });
    add("cloud.blob_put_us", "us", put_us, c.participants, false,
        "core.round_turn_ms");
    const BlobId id = store.PutPooled(payload);
    add("cloud.blob_get_us", "us",
        sampler.MedianUs([&] { (void)store.GetShared(id); }), c.sent, true,
        "flow.dispatch_ms");
  }

  // persist: a 256-record group commit (append + fsync) and an atomic
  // checkpoint of this model's aggregator state.
  {
    const std::string log_path = persist::BlobLogPath(scratch_dir);
    persist::BlobLogWriter writer(io, log_path);
    std::uint64_t next_id = 1;
    const double us = sampler.MedianUs(
        [&] {
          for (int i = 0; i < 256; ++i) writer.AppendPut(BlobId(next_id++), payload);
          (void)writer.Commit();
        },
        [&] { (void)io.Remove(log_path); }, /*batched=*/false);
    add("persist.log_commit_ms", "ms", us, c.runtime.log_commits, false,
        "core.round_turn_ms");
  }
  {
    persist::CheckpointState state;
    state.aggregation.model_dim = model.dim();
    state.aggregation.global_weights.assign(model.weights().begin(),
                                            model.weights().end());
    state.aggregation.accumulator.assign(model.dim(), 0.0);
    state.aggregation.accumulator_c1.assign(model.dim(), 0.0);
    state.aggregation.accumulator_c2.assign(model.dim(), 0.0);
    state.rounds.resize(config.rounds);
    // A mid-run dispatch log: half the run's per-message ticks.
    const auto ticks = static_cast<std::size_t>(c.sent / 2);
    for (std::size_t i = 0; i < ticks; ++i) {
      state.dispatch.batches.emplace_back(static_cast<SimTime>(i), 1);
      state.dispatch.batch_keys.push_back(i);
    }
    add("persist.checkpoint_ms", "ms",
        sampler.MedianUs([&] { (void)persist::WriteCheckpoint(io, scratch_dir, state); },
                 [] {}, /*batched=*/false),
        c.runtime.checkpoints, false, "core.round_turn_ms");
  }

  // sched: one admission pass over this workload's queue on a fresh pool.
  {
    std::vector<sched::TaskSpec> specs;
    if (e.multi_tenant) {
      for (const core::TenantTask& task : e.tenants) specs.push_back(task.spec);
    } else {
      sched::TaskSpec spec;
      spec.id = config.task;
      sched::DeviceRequirement requirement;
      requirement.num_devices = dataset.devices.size();
      requirement.logical_bundles = 10;
      spec.requirements.push_back(requirement);
      specs.push_back(spec);
    }
    const std::size_t logical = e.multi_tenant ? e.logical_bundles : 100;
    const auto phones = e.multi_tenant ? e.phones : decltype(e.phones){8, 8};
    std::unique_ptr<sched::ResourceManager> resources;
    std::unique_ptr<sched::TaskQueue> queue;
    std::unique_ptr<sched::GreedyScheduler> scheduler;
    const double us = sampler.MedianUs(
        [&] { (void)scheduler->SchedulePassEx(*queue, e.policy); },
        [&] {
          scheduler.reset();
          resources = std::make_unique<sched::ResourceManager>(logical, phones);
          queue = std::make_unique<sched::TaskQueue>();
          for (const sched::TaskSpec& spec : specs) (void)queue->Submit(spec);
          scheduler = std::make_unique<sched::GreedyScheduler>(*resources);
        },
        /*batched=*/false);
    add("sched.admission_pass_us", "us", us, c.admission_passes, false,
        "sim.loop_ms");
  }

  // sim: one event through ScheduleBulk + RunUntil (batches of 1024).
  {
    constexpr std::size_t kEvents = 1024;
    sim::EventLoop loop;
    std::uint64_t fired = 0;
    std::uint64_t salt = 0;
    const double us = sampler.MedianUs(
        [&] {
          std::vector<sim::TimedEvent> events(kEvents);
          const SimTime base = loop.Now();
          for (std::size_t i = 0; i < kEvents; ++i) {
            events[i].time =
                base + 1 + static_cast<SimTime>(HashCombine(++salt, i) % 1000000);
            events[i].fn = [&fired] { ++fired; };
          }
          (void)loop.ScheduleBulk(std::move(events));
          (void)loop.RunUntil(base + 1000001);
        },
        [] {}, /*batched=*/false);
    add("sim.event_us", "us", us / kEvents, c.cloud_events, false,
        "sim.loop_ms");
  }

  std::error_code ec;
  std::filesystem::remove_all(scratch_dir, ec);
  return probes;
}

}  // namespace simdc::bench
