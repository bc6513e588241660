#include "data/synth_avazu.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"
#include "data/schema.h"

namespace simdc::data {
namespace {

/// Inverse-CDF Zipf sampler over [0, n) with exponent s (s == 0 → uniform).
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) : cumulative_(n) {
    double total = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      total += s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(i + 1), s);
      cumulative_[i] = total;
    }
    for (double& c : cumulative_) c /= total;
  }

  std::uint32_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cumulative_.begin(),
                                 static_cast<std::ptrdiff_t>(cumulative_.size()) - 1));
  }

 private:
  std::vector<double> cumulative_;
};

/// Ground-truth logistic weight for a (field, value) pair, derived
/// deterministically from a hash so labels are globally consistent.
double GroundTruthWeight(std::uint32_t field, std::uint32_t value) {
  const std::uint64_t h =
      SplitMix64((static_cast<std::uint64_t>(field) << 32) ^ value ^
                 0xA5A5A5A5DEADBEEFULL);
  const std::uint64_t h2 = SplitMix64(h);
  // Box–Muller from two hash-derived uniforms.
  const double u1 =
      (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;  // in (0, 1]
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  const double normal =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  // Keep per-example score stddev ~0.5 over 22 fields.
  constexpr double kWeightStd = 0.105;
  return kWeightStd * normal;
}

/// Where field f's values start in the flat ground-truth weight table.
constexpr std::array<std::uint32_t, kAvazuFields.size()> kWeightOffsets = [] {
  std::array<std::uint32_t, kAvazuFields.size()> offsets{};
  std::uint32_t next = 0;
  for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
    offsets[f] = next;
    next += kAvazuFields[f].cardinality;
  }
  return offsets;
}();

/// GroundTruthWeight(f, v) for every (field, value), at
/// kWeightOffsets[f] + v: a record then costs 22 loads, not 22 log/sqrt/cos.
const std::vector<double>& GroundTruthWeights() {
  static const std::vector<double> weights = [] {
    std::vector<double> out;
    for (std::uint32_t f = 0; f < kAvazuFields.size(); ++f) {
      for (std::uint32_t v = 0; v < kAvazuFields[f].cardinality; ++v) {
        out.push_back(GroundTruthWeight(f, v));
      }
    }
    return out;
  }();
  return weights;
}

double Logit(double p) {
  const double clamped = std::clamp(p, 1e-6, 1.0 - 1e-6);
  return std::log(clamped / (1.0 - clamped));
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

const std::vector<ZipfSampler>& FieldSamplers() {
  static const std::vector<ZipfSampler> samplers = [] {
    std::vector<ZipfSampler> out;
    out.reserve(kAvazuFields.size());
    for (const auto& field : kAvazuFields) {
      out.emplace_back(field.cardinality, field.zipf_exponent);
    }
    return out;
  }();
  return samplers;
}

/// Per-device state: field preferences and CTR bias. Fixed-size, so the
/// generation workers never allocate.
struct DeviceProfile {
  /// Preferred values for device-affine fields (indexed by field): the
  /// first `preference_count[f]` entries, none for the other fields.
  std::array<std::array<std::uint32_t, 3>, kAvazuFields.size()> preferences{};
  std::array<std::uint32_t, kAvazuFields.size()> preference_count{};
  double ctr_target = 0.0;
  double bias = 0.0;
};

DeviceProfile MakeProfile(Rng& rng, const SynthConfig& config,
                          std::size_t device_index) {
  DeviceProfile profile;
  const auto& samplers = FieldSamplers();
  for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
    if (!kAvazuFields[f].device_affine) continue;
    // A device concentrates on a handful of values per affine field.
    const auto prefs = static_cast<std::uint32_t>(1 + rng.UniformInt(0, 2));
    for (std::uint32_t p = 0; p < prefs; ++p) {
      profile.preferences[f][p] = samplers[f].Sample(rng);
    }
    profile.preference_count[f] = prefs;
  }

  switch (config.distribution) {
    case LabelDistribution::kIid:
      profile.ctr_target = kGlobalCtr;
      break;
    case LabelDistribution::kNatural:
      profile.ctr_target =
          Sigmoid(rng.Normal(Logit(kGlobalCtr), kNaturalLogitStddev));
      break;
    case LabelDistribution::kPolarized: {
      // Interleaved assignment (index mod 100) so the fraction holds for
      // any contiguous index range — including the held-out test devices
      // that come after the training devices.
      const bool positive_heavy =
          static_cast<double>(device_index % 100) <
          config.polarized_positive_fraction * 100.0;
      profile.ctr_target = positive_heavy ? config.positive_heavy_ctr
                                          : config.negative_heavy_ctr;
      break;
    }
  }
  profile.bias = Logit(profile.ctr_target);
  return profile;
}

/// Draws one record into `example`, whose features the caller reserved.
void FillExample(Rng& rng, const DeviceProfile& profile,
                 std::uint32_t hash_dim, Example& example) {
  const auto& samplers = FieldSamplers();
  const auto& weights = GroundTruthWeights();
  double score = 0.0;
  for (std::size_t f = 0; f < kAvazuFields.size(); ++f) {
    std::uint32_t value;
    const std::uint32_t prefs = profile.preference_count[f];
    // Device-affine fields reuse the device's preferred values 80% of the
    // time; everything else draws from the global popularity distribution.
    if (prefs != 0 && rng.Uniform() < 0.8) {
      value = profile.preferences[f][static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(prefs) - 1))];
    } else {
      value = samplers[f].Sample(rng);
    }
    example.features.push_back(
        HashFeature(static_cast<std::uint32_t>(f), value, hash_dim));
    score += weights[kWeightOffsets[f] + value];
  }
  const double click_probability = Sigmoid(score + profile.bias);
  example.label = rng.Bernoulli(click_probability) ? 1.0f : 0.0f;
}

std::size_t DrawRecordCount(Rng& rng, double mean) {
  // Log-normal spread around the configured mean, at least one record.
  constexpr double kSigma = 0.5;
  const double mu = std::log(std::max(1.0, mean)) - kSigma * kSigma / 2.0;
  const double draw = rng.LogNormal(mu, kSigma);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(draw)));
}

/// Each generation worker gets at least this many devices, so small
/// datasets (most tests) start one or two threads, not one per core.
constexpr std::size_t kMinDevicesPerWorker = 32;

std::size_t GenerationWorkers(std::size_t devices) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(devices / kMinDevicesPerWorker, 1, cores);
}

}  // namespace

FederatedDataset GenerateSyntheticAvazu(const SynthConfig& config) {
  SIMDC_CHECK(config.num_devices > 0, "need at least one device");
  SIMDC_CHECK(config.hash_dim >= 1024, "hash_dim too small for 22 fields");
  const Rng root(config.seed);
  const std::size_t total_devices = config.num_devices + config.num_test_devices;
  // Device i draws only from root.Split(i) and writes only its own slots,
  // so the dataset is the same at any worker count.
  ThreadPool pool(GenerationWorkers(total_devices));

  // Pass 1: each device's record count.
  std::vector<std::size_t> records(total_devices);
  pool.ParallelFor(total_devices, [&](std::size_t i) {
    Rng device_rng = root.Split(i);
    (void)MakeProfile(device_rng, config, i);
    records[i] = DrawRecordCount(device_rng, config.records_per_device_mean);
  });

  // Every Example buffer is allocated here, on the calling thread, in
  // device order. Buffers the workers allocated would sit in their own
  // malloc arenas, which keep the memory of freed datasets resident.
  FederatedDataset dataset;
  dataset.hash_dim = config.hash_dim;
  dataset.devices.resize(config.num_devices);
  std::vector<std::span<Example>> slots(total_devices);
  const auto reserve_features = [](std::span<Example> examples) {
    for (Example& example : examples) {
      example.features.reserve(kFeaturesPerExample);
    }
  };
  for (std::size_t i = 0; i < config.num_devices; ++i) {
    std::vector<Example>& examples = dataset.devices[i].examples;
    examples.resize(records[i]);
    reserve_features(examples);
    slots[i] = examples;
  }
  // Test devices' records, back to back in device order.
  dataset.test_set.resize(std::accumulate(
      records.begin() + static_cast<std::ptrdiff_t>(config.num_devices),
      records.end(), std::size_t{0}));
  reserve_features(dataset.test_set);
  for (std::size_t i = config.num_devices, next = 0; i < total_devices; ++i) {
    slots[i] = std::span(dataset.test_set).subspan(next, records[i]);
    next += records[i];
  }

  // Pass 2: replay each device's stream from the start and fill its slots.
  pool.ParallelFor(total_devices, [&](std::size_t i) {
    Rng device_rng = root.Split(i);
    const DeviceProfile profile = MakeProfile(device_rng, config, i);
    (void)DrawRecordCount(device_rng, config.records_per_device_mean);
    if (i < config.num_devices) {
      DeviceData& device = dataset.devices[i];
      device.device = DeviceId(i);
      device.true_ctr = profile.ctr_target;
      // Higher-CTR devices respond faster (Fig. 9 scenario); the default
      // delay is the positive tail of a unit normal, shifted by CTR rank.
      device.response_delay_s =
          std::abs(device_rng.Normal()) * (1.2 - profile.ctr_target);
    }
    for (Example& example : slots[i]) {
      FillExample(device_rng, profile, config.hash_dim, example);
    }
  });
  return dataset;
}

FederatedDataset RepartitionIid(const FederatedDataset& dataset,
                                std::uint64_t seed) {
  FederatedDataset out;
  out.hash_dim = dataset.hash_dim;
  out.test_set = dataset.test_set;

  std::vector<Example> pool;
  pool.reserve(dataset.TotalExamples());
  for (const auto& device : dataset.devices) {
    pool.insert(pool.end(), device.examples.begin(), device.examples.end());
  }
  Rng rng(seed);
  rng.Shuffle(pool);

  const double global_rate = dataset.GlobalPositiveRate();
  out.devices.reserve(dataset.devices.size());
  std::size_t cursor = 0;
  for (const auto& device : dataset.devices) {
    DeviceData shard;
    shard.device = device.device;
    shard.true_ctr = global_rate;
    shard.response_delay_s = device.response_delay_s;
    const std::size_t take =
        std::min(device.examples.size(), pool.size() - cursor);
    shard.examples.assign(pool.begin() + static_cast<std::ptrdiff_t>(cursor),
                          pool.begin() + static_cast<std::ptrdiff_t>(cursor + take));
    cursor += take;
    out.devices.push_back(std::move(shard));
  }
  return out;
}

}  // namespace simdc::data
