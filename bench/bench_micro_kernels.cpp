// Google-benchmark microbenchmarks for SimDC's hot kernels: local LR
// training (both operators), FedAvg accumulation, model serialization,
// rate discretization, evaluation, event-loop throughput, and synthetic
// data generation. These quantify the per-device costs that the Fig. 7/8
// cost models parameterize. After the google-benchmark run, a custom main
// hand-times the FedAvg cascade kernels, checks that their variants agree
// bit for bit, and emits OPTIME lines for the BENCH_*.json artifact.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "cloud/storage.h"
#include "common/rng.h"
#include "data/synth_avazu.h"
#include "device/grade.h"
#include "flow/rate_functions.h"
#include "flow/strategy.h"
#include "ml/fedavg.h"
#include "ml/metrics.h"
#include "ml/operators.h"
#include "sched/allocation.h"
#include "sim/event_loop.h"

namespace {

using namespace simdc;

const data::FederatedDataset& Shards() {
  static const auto dataset = [] {
    data::SynthConfig config;
    config.num_devices = 64;
    config.records_per_device_mean = 20;
    config.hash_dim = 1u << 14;
    config.seed = 5;
    return data::GenerateSyntheticAvazu(config);
  }();
  return dataset;
}

void BM_LocalTrainServer(benchmark::State& state) {
  const auto& dataset = Shards();
  ml::ServerLrOperator op;
  ml::TrainConfig config;
  config.epochs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ml::LrModel model(dataset.hash_dim);
    op.Train(model, dataset.devices[0].examples, config);
    benchmark::DoNotOptimize(model.bias());
  }
}
BENCHMARK(BM_LocalTrainServer)->Arg(1)->Arg(10);

void BM_LocalTrainMobile(benchmark::State& state) {
  const auto& dataset = Shards();
  ml::MobileLrOperator op;
  ml::TrainConfig config;
  config.epochs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ml::LrModel model(dataset.hash_dim);
    op.Train(model, dataset.devices[0].examples, config);
    benchmark::DoNotOptimize(model.bias());
  }
}
BENCHMARK(BM_LocalTrainMobile)->Arg(1)->Arg(10);

void BM_FedAvgAccumulate(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  ml::LrModel model(1u << 14);
  for (auto _ : state) {
    ml::FedAvgAggregator aggregator(1u << 14);
    for (std::size_t c = 0; c < clients; ++c) {
      benchmark::DoNotOptimize(aggregator.Add(model, 10).ok());
    }
    benchmark::DoNotOptimize(aggregator.Aggregate().ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(clients));
}
BENCHMARK(BM_FedAvgAccumulate)->Arg(8)->Arg(64)->Arg(512);

void BM_ModelSerializeRoundTrip(benchmark::State& state) {
  ml::LrModel model(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    const auto bytes = model.ToBytes();
    auto restored = ml::LrModel::FromBytes(bytes);
    benchmark::DoNotOptimize(restored.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.SerializedSize()));
}
BENCHMARK(BM_ModelSerializeRoundTrip)->Arg(1 << 13)->Arg(1 << 16);

void BM_BlobStorePutGet(benchmark::State& state) {
  cloud::BlobStore store;
  const std::vector<std::byte> payload(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const BlobId id = store.Put(payload);
    benchmark::DoNotOptimize(store.Get(id).ok());
    benchmark::DoNotOptimize(store.Delete(id).ok());
  }
}
BENCHMARK(BM_BlobStorePutGet)->Arg(1 << 12)->Arg(1 << 18);

void BM_DiscretizeRate(benchmark::State& state) {
  const auto curve = flow::NormalCurve(1.0);
  const auto total = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto plan = flow::DiscretizeRate(curve, Minutes(1.0), total, 700.0);
    benchmark::DoNotOptimize(plan.size());
  }
}
BENCHMARK(BM_DiscretizeRate)->Arg(1000)->Arg(100000);

void BM_EventLoopThroughput(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventLoop loop;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      loop.ScheduleAt(static_cast<SimTime>(i), [&fired] { ++fired; });
    }
    loop.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventLoopThroughput)->Arg(1024)->Arg(65536);

void BM_Evaluate(benchmark::State& state) {
  // Single-pass Evaluate: accuracy + logloss from one forward pass.
  const auto& dataset = Shards();
  ml::LrModel model(dataset.hash_dim);
  ml::ServerLrOperator op;
  op.Train(model, dataset.devices[0].examples, {});
  std::vector<data::Example> pool;
  for (const auto& device : dataset.devices) {
    pool.insert(pool.end(), device.examples.begin(), device.examples.end());
  }
  for (auto _ : state) {
    const auto report = ml::Evaluate(model, pool);
    benchmark::DoNotOptimize(report.logloss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pool.size()));
}
BENCHMARK(BM_Evaluate);

void BM_SolveHybridAllocation(benchmark::State& state) {
  // Fig. 7 solver: candidate generation dominates at large device counts.
  const auto scale = static_cast<std::size_t>(state.range(0));
  std::vector<sched::GradeAllocationInput> grades;
  for (const auto grade_spec :
       {device::HighGradeSpec(), device::LowGradeSpec()}) {
    sched::GradeAllocationInput g;
    g.total_devices = scale;
    g.logical_bundles = 100;
    g.bundles_per_device = grade_spec.unit_bundles;
    g.phones = grade_spec.grade == device::DeviceGrade::kHigh ? 12 : 8;
    g.alpha_s = grade_spec.alpha_s;
    g.beta_s = grade_spec.beta_s;
    g.lambda_s = grade_spec.lambda_s;
    grades.push_back(g);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::SolveHybridAllocation(grades).ok());
  }
}
BENCHMARK(BM_SolveHybridAllocation)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EventLoopCancelHeavy(benchmark::State& state) {
  // Schedule n events, cancel every other one, then drain: exercises the
  // tombstone path on pop (hash-set lookup per event).
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventLoop loop;
    std::vector<sim::EventHandle> handles;
    handles.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
      handles.push_back(loop.ScheduleAt(static_cast<SimTime>(i), [] {}));
    }
    for (std::size_t i = 0; i < events; i += 2) {
      benchmark::DoNotOptimize(loop.Cancel(handles[i]));
    }
    loop.Run();
    benchmark::DoNotOptimize(loop.processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventLoopCancelHeavy)->Arg(1024)->Arg(65536);

void BM_SyntheticDataGeneration(benchmark::State& state) {
  data::SynthConfig config;
  config.num_devices = static_cast<std::size_t>(state.range(0));
  config.records_per_device_mean = 20;
  config.hash_dim = 1u << 14;
  for (auto _ : state) {
    const auto dataset = data::GenerateSyntheticAvazu(config);
    benchmark::DoNotOptimize(dataset.TotalExamples());
  }
}
BENCHMARK(BM_SyntheticDataGeneration)->Arg(100)->Arg(1000);

/// Byte equality of two double planes (+0.0 and -0.0 differ).
bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Hand-timed OPTIME ops for the FedAvg cascade kernels, plus the
/// bit-identity asserts between kernel variants: fedavg_add_scalar (span
/// reference loop) vs fedavg_add_simd (the dispatched CascadeAdd, AVX2
/// where the CPU has it) must produce equal bytes, and
/// shard_reduce_{2,4,8} (k-way partial aggregators merged ascending) must
/// publish the same model bits as one serial aggregator. Returns false on
/// any mismatch so the bench exits non-zero — the same hard gate style as
/// the fig8 equivalence checks.
bool EmitFedAvgKernelOpTimings() {
  constexpr std::uint32_t kDim = 1u << 14;
  constexpr int kRepeats = 40;
  bool identical = true;

  // Deterministic adversarial weights: mixed magnitudes and signs.
  Rng rng(0x5EED);
  std::vector<float> weights(kDim);
  for (auto& w : weights) {
    const double magnitude =
        std::pow(10.0, static_cast<double>(rng() % 11) - 5.0);
    w = static_cast<float>((rng() & 1 ? 1.0 : -1.0) * magnitude);
  }

  // fedavg_add_scalar vs fedavg_add_simd over identical inputs.
  std::vector<double> sum_a(kDim, 0.0), c1_a(kDim, 0.0), c2_a(kDim, 0.0);
  const auto scalar_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRepeats; ++i) {
    ml::kernels::CascadeAddScalar(weights, static_cast<double>(i + 1), sum_a,
                                  c1_a, c2_a);
  }
  const auto scalar_elapsed = std::chrono::steady_clock::now() - scalar_start;
  bench::OpTimings::Instance().Record(
      "fedavg_add_scalar",
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(scalar_elapsed)
              .count()),
      kRepeats);

  std::vector<double> sum_b(kDim, 0.0), c1_b(kDim, 0.0), c2_b(kDim, 0.0);
  const auto simd_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRepeats; ++i) {
    ml::kernels::CascadeAdd(weights.data(), kDim, static_cast<double>(i + 1),
                            sum_b.data(), c1_b.data(), c2_b.data());
  }
  const auto simd_elapsed = std::chrono::steady_clock::now() - simd_start;
  bench::OpTimings::Instance().Record(
      "fedavg_add_simd",
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(simd_elapsed)
              .count()),
      kRepeats);
  if (!SameBytes(sum_a, sum_b) || !SameBytes(c1_a, c1_b) ||
      !SameBytes(c2_a, c2_b)) {
    std::fprintf(stderr,
                 "BIT MISMATCH: fedavg_add_simd != fedavg_add_scalar\n");
    identical = false;
  }
  std::fprintf(stderr,
               "fedavg kernel variant: %s (fedavg_add_scalar / "
               "fedavg_add_simd = %.2fx)\n",
               ToString(DispatchedIsa()),
               std::chrono::duration<double>(scalar_elapsed).count() /
                   std::chrono::duration<double>(simd_elapsed).count());

  // shard_reduce_{2,4,8}: k partial aggregators + ascending MergeFrom vs
  // one serial aggregator over the same update multiset.
  constexpr std::size_t kClients = 64;
  std::vector<ml::LrModel> models;
  std::vector<std::size_t> samples;
  for (std::size_t c = 0; c < kClients; ++c) {
    ml::LrModel model(kDim);
    for (std::uint32_t i = 0; i < kDim; ++i) {
      model.weights()[i] = weights[(i + c) % kDim];
    }
    model.bias() = static_cast<float>(c) - 31.5f;
    models.push_back(std::move(model));
    samples.push_back(1 + c % 9);
  }
  ml::FedAvgAggregator serial(kDim);
  for (std::size_t c = 0; c < kClients; ++c) {
    if (!serial.Add(models[c], samples[c]).ok()) identical = false;
  }
  const auto serial_model = serial.Aggregate();
  if (!serial_model.ok()) identical = false;

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    const auto start = std::chrono::steady_clock::now();
    ml::LrModel reduced(0);
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::vector<ml::FedAvgAggregator> partials;
      for (std::size_t s = 0; s < shards; ++s) partials.emplace_back(kDim);
      for (std::size_t c = 0; c < kClients; ++c) {
        if (!partials[c % shards].Add(models[c], samples[c]).ok()) {
          identical = false;
        }
      }
      ml::FedAvgAggregator merged(kDim);
      for (const auto& partial : partials) merged.MergeFrom(partial);
      auto model = merged.Aggregate();
      if (!model.ok()) {
        identical = false;
        continue;
      }
      reduced = std::move(*model);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    bench::OpTimings::Instance().Record(
        "shard_reduce_" + std::to_string(shards),
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        kRepeats);
    if (serial_model.ok() &&
        (std::memcmp(reduced.weights().data(), serial_model->weights().data(),
                     kDim * sizeof(float)) != 0 ||
         std::bit_cast<std::uint32_t>(reduced.bias()) !=
             std::bit_cast<std::uint32_t>(serial_model->bias()))) {
      std::fprintf(stderr,
                   "BIT MISMATCH: shard_reduce_%zu != serial aggregate\n",
                   shards);
      identical = false;
    }
  }
  std::fprintf(stderr, "fedavg kernel bit-identity: %s\n",
               identical ? "OK" : "FAILED");
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const bool kernels_identical = EmitFedAvgKernelOpTimings();
  simdc::bench::EmitOpTimings();
  return kernels_identical ? 0 : 1;
}
