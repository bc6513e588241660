// Unit tests for the synthetic Avazu-like dataset generator.
#include <gtest/gtest.h>

#include <set>

#include "data/schema.h"
#include "data/sharding.h"
#include "data/synth_avazu.h"
#include "golden_digest.h"

namespace simdc::data {
namespace {

SynthConfig SmallConfig() {
  SynthConfig config;
  config.num_devices = 200;
  config.records_per_device_mean = 20;
  config.num_test_devices = 20;
  config.hash_dim = 1u << 14;
  config.seed = 7;
  return config;
}

TEST(SchemaTest, HashFeatureStaysInRange) {
  for (std::uint32_t f = 0; f < kAvazuFields.size(); ++f) {
    for (std::uint32_t v = 0; v < 100; ++v) {
      EXPECT_LT(HashFeature(f, v, 4096), 4096u);
    }
  }
}

TEST(SchemaTest, HashFeatureSeparatesFields) {
  // Same value in different fields should almost never collide.
  int collisions = 0;
  for (std::uint32_t v = 0; v < 500; ++v) {
    if (HashFeature(0, v, 1u << 16) == HashFeature(1, v, 1u << 16)) {
      ++collisions;
    }
  }
  EXPECT_LE(collisions, 2);
}

TEST(SynthAvazuTest, DeterministicInSeed) {
  const auto a = GenerateSyntheticAvazu(SmallConfig());
  const auto b = GenerateSyntheticAvazu(SmallConfig());
  ASSERT_EQ(a.devices.size(), b.devices.size());
  ASSERT_EQ(a.TotalExamples(), b.TotalExamples());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    ASSERT_EQ(a.devices[d].examples.size(), b.devices[d].examples.size());
    for (std::size_t e = 0; e < a.devices[d].examples.size(); ++e) {
      EXPECT_EQ(a.devices[d].examples[e].features,
                b.devices[d].examples[e].features);
      EXPECT_EQ(a.devices[d].examples[e].label, b.devices[d].examples[e].label);
    }
  }
}

TEST(SynthAvazuTest, DifferentSeedsDiffer) {
  auto config = SmallConfig();
  const auto a = GenerateSyntheticAvazu(config);
  config.seed = 8;
  const auto b = GenerateSyntheticAvazu(config);
  EXPECT_NE(a.TotalExamples(), b.TotalExamples());
}

TEST(SynthAvazuTest, ShapeMatchesConfig) {
  const auto dataset = GenerateSyntheticAvazu(SmallConfig());
  EXPECT_EQ(dataset.devices.size(), 200u);
  EXPECT_EQ(dataset.hash_dim, 1u << 14);
  EXPECT_FALSE(dataset.test_set.empty());
  for (const auto& device : dataset.devices) {
    EXPECT_FALSE(device.examples.empty());
    for (const auto& example : device.examples) {
      EXPECT_EQ(example.features.size(), kFeaturesPerExample);
      for (std::uint32_t idx : example.features) {
        EXPECT_LT(idx, dataset.hash_dim);
      }
      EXPECT_TRUE(example.label == 0.0f || example.label == 1.0f);
    }
  }
}

TEST(SynthAvazuTest, DeviceIdsAreUniqueAndSequential) {
  const auto dataset = GenerateSyntheticAvazu(SmallConfig());
  std::set<DeviceId> ids;
  for (const auto& device : dataset.devices) ids.insert(device.device);
  EXPECT_EQ(ids.size(), dataset.devices.size());
}

TEST(SynthAvazuTest, GlobalCtrNearTarget) {
  auto config = SmallConfig();
  config.num_devices = 1000;
  config.distribution = LabelDistribution::kIid;
  const auto dataset = GenerateSyntheticAvazu(config);
  EXPECT_NEAR(dataset.GlobalPositiveRate(), kGlobalCtr, 0.03);
}

TEST(SynthAvazuTest, NaturalModeHasHeterogeneousCtr) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kNatural;
  const auto dataset = GenerateSyntheticAvazu(config);
  double lo = 1.0, hi = 0.0;
  for (const auto& device : dataset.devices) {
    lo = std::min(lo, device.true_ctr);
    hi = std::max(hi, device.true_ctr);
  }
  EXPECT_LT(lo, 0.10);  // spread on both sides of 0.17
  EXPECT_GT(hi, 0.30);
}

TEST(SynthAvazuTest, PolarizedModeSplitsDevices) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kPolarized;
  config.polarized_positive_fraction = 0.7;
  const auto dataset = GenerateSyntheticAvazu(config);
  std::size_t positive_heavy = 0, negative_heavy = 0;
  for (const auto& device : dataset.devices) {
    if (device.true_ctr > 0.5) {
      ++positive_heavy;
    } else {
      ++negative_heavy;
    }
  }
  // 70% of 200 = 140 positive-heavy devices (Fig. 11b setup).
  EXPECT_EQ(positive_heavy, 140u);
  EXPECT_EQ(negative_heavy, 60u);
}

TEST(SynthAvazuTest, PolarizedLabelsReflectCtr) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kPolarized;
  config.records_per_device_mean = 50;
  const auto dataset = GenerateSyntheticAvazu(config);
  // Empirical positive rate of positive-heavy devices must far exceed the
  // negative-heavy ones.
  double pos_rate_sum = 0.0, neg_rate_sum = 0.0;
  std::size_t pos_n = 0, neg_n = 0;
  for (const auto& device : dataset.devices) {
    std::size_t pos = 0;
    for (const auto& e : device.examples) pos += e.label > 0.5f;
    const double rate =
        static_cast<double>(pos) / static_cast<double>(device.examples.size());
    if (device.true_ctr > 0.5) {
      pos_rate_sum += rate;
      ++pos_n;
    } else {
      neg_rate_sum += rate;
      ++neg_n;
    }
  }
  EXPECT_GT(pos_rate_sum / static_cast<double>(pos_n), 0.55);
  EXPECT_LT(neg_rate_sum / static_cast<double>(neg_n), 0.25);
}

TEST(SynthAvazuTest, ResponseDelayNonNegative) {
  const auto dataset = GenerateSyntheticAvazu(SmallConfig());
  for (const auto& device : dataset.devices) {
    EXPECT_GE(device.response_delay_s, 0.0);
  }
}

TEST(SynthAvazuTest, RejectsBadConfig) {
  SynthConfig config;
  config.num_devices = 0;
  EXPECT_THROW(GenerateSyntheticAvazu(config), std::invalid_argument);
  config.num_devices = 10;
  config.hash_dim = 16;  // too small
  EXPECT_THROW(GenerateSyntheticAvazu(config), std::invalid_argument);
}

/// Every bit of a dataset: its shape, each device's id, CTR and delay, and
/// every feature and label, test set included.
std::uint64_t DatasetDigest(const FederatedDataset& dataset) {
  golden::Digest d;
  const auto add_examples = [&d](const std::vector<Example>& examples) {
    d.Add(examples.size());
    for (const Example& example : examples) {
      d.Add(example.features.size());
      for (const std::uint32_t feature : example.features) d.Add(feature);
      d.Add(example.label);
    }
  };
  d.Add(dataset.hash_dim);
  d.Add(dataset.devices.size());
  for (const DeviceData& device : dataset.devices) {
    d.Add(device.device.value());
    d.Add(device.true_ctr);
    d.Add(device.response_delay_s);
    add_examples(device.examples);
  }
  add_examples(dataset.test_set);
  return d.value();
}

TEST(SynthAvazuTest, GoldenDigests) {
  // Captured from the one-device-at-a-time generator. The parallel one
  // must reproduce every bit at any core count and ISA level.
  struct Case {
    const char* name;
    std::size_t devices;
    double records;
    std::size_t test_devices;
    std::uint32_t hash_dim;
    LabelDistribution distribution;
  };
  const Case cases[] = {
      {"data.synth_iid", 64, 8, 8, 1u << 12, LabelDistribution::kIid},
      // Enough devices for every generation worker.
      {"data.synth_natural", 600, 20, 20, 1u << 16,
       LabelDistribution::kNatural},
      {"data.synth_polarized_dim5000", 200, 10, 10, 5000,
       LabelDistribution::kPolarized},
      // Fewer devices than workers, and no test set.
      {"data.synth_three_devices", 3, 30, 0, 1u << 10,
       LabelDistribution::kNatural},
  };
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    SynthConfig config;
    config.num_devices = c.devices;
    config.records_per_device_mean = c.records;
    config.num_test_devices = c.test_devices;
    config.hash_dim = c.hash_dim;
    config.distribution = c.distribution;
    config.seed = ++seed;
    golden::ExpectGolden(c.name, DatasetDigest(GenerateSyntheticAvazu(config)));
  }
}

TEST(RepartitionIidTest, PreservesTotalsAndShardSizes) {
  auto config = SmallConfig();
  config.distribution = LabelDistribution::kPolarized;
  const auto original = GenerateSyntheticAvazu(config);
  const auto iid = RepartitionIid(original, 99);
  EXPECT_EQ(iid.devices.size(), original.devices.size());
  EXPECT_EQ(iid.TotalExamples(), original.TotalExamples());
  EXPECT_EQ(iid.test_set.size(), original.test_set.size());
  for (std::size_t d = 0; d < iid.devices.size(); ++d) {
    EXPECT_EQ(iid.devices[d].examples.size(),
              original.devices[d].examples.size());
    EXPECT_EQ(iid.devices[d].device, original.devices[d].device);
  }
}

TEST(RepartitionIidTest, ShardsBecomeHomogeneous) {
  auto config = SmallConfig();
  config.num_devices = 100;
  config.records_per_device_mean = 100;
  config.distribution = LabelDistribution::kPolarized;
  const auto original = GenerateSyntheticAvazu(config);
  const auto iid = RepartitionIid(original, 99);
  const double global = iid.GlobalPositiveRate();
  // After IID repartition, per-shard positive rates concentrate near the
  // global rate; in the polarized original they are bimodal.
  std::size_t near_global = 0;
  for (const auto& device : iid.devices) {
    std::size_t pos = 0;
    for (const auto& e : device.examples) pos += e.label > 0.5f;
    const double rate =
        static_cast<double>(pos) / static_cast<double>(device.examples.size());
    if (std::abs(rate - global) < 0.15) ++near_global;
  }
  EXPECT_GT(near_global, 85u);  // >85% of shards close to global
}

// ---------- Shard partitioning ----------

TEST(ShardingTest, PartitionCoversContiguouslyWithNearEqualSizes) {
  for (const std::size_t n : {1u, 7u, 100u, 101u, 4096u}) {
    for (const std::size_t s : {1u, 2u, 3u, 4u, 8u}) {
      const auto ranges = PartitionDevices(n, s);
      ASSERT_EQ(ranges.size(), std::min<std::size_t>(s, n));
      std::size_t cursor = 0;
      std::size_t lo = n, hi = 0;
      for (const auto& range : ranges) {
        EXPECT_EQ(range.begin, cursor) << "gap/overlap at n=" << n;
        EXPECT_GT(range.size(), 0u);
        cursor = range.end;
        lo = std::min(lo, range.size());
        hi = std::max(hi, range.size());
      }
      EXPECT_EQ(cursor, n);
      EXPECT_LE(hi - lo, 1u) << "unbalanced at n=" << n << " s=" << s;
    }
  }
}

TEST(ShardingTest, ShardOfMatchesRanges) {
  for (const std::size_t n : {1u, 5u, 64u, 101u}) {
    for (const std::size_t s : {1u, 2u, 4u, 8u, 200u}) {
      const auto ranges = PartitionDevices(n, s);
      for (std::size_t device = 0; device < n; ++device) {
        const std::size_t shard = ShardOf(device, n, s);
        ASSERT_LT(shard, ranges.size());
        EXPECT_TRUE(ranges[shard].contains(device))
            << "device " << device << " n=" << n << " s=" << s;
      }
    }
  }
}

TEST(ShardingTest, ClampsShardCountAndValidates) {
  EXPECT_EQ(PartitionDevices(3, 0).size(), 1u);    // 0 → one fleet
  EXPECT_EQ(PartitionDevices(3, 100).size(), 3u);  // never an empty shard
  EXPECT_TRUE(PartitionDevices(0, 4).empty());
  EXPECT_THROW(ShardOf(5, 5, 2), std::invalid_argument);
}

TEST(ShardingTest, MoreShardsThanDevicesGivesSingletons) {
  // 3 devices over 100 requested fleets: exactly one device per shard, and
  // ShardOf agrees with the clamped partition at every index.
  const auto ranges = PartitionDevices(3, 100);
  ASSERT_EQ(ranges.size(), 3u);
  for (std::size_t device = 0; device < 3; ++device) {
    EXPECT_EQ(ranges[device].begin, device);
    EXPECT_EQ(ranges[device].size(), 1u);
    EXPECT_EQ(ShardOf(device, 3, 100), device);
  }
}

TEST(ShardingTest, ZeroDevicesHasNoShardsAndRejectsLookups) {
  EXPECT_TRUE(PartitionDevices(0, 1).empty());
  EXPECT_TRUE(PartitionDevices(0, 0).empty());
  EXPECT_THROW(ShardOf(0, 0, 1), std::invalid_argument);
}

TEST(ShardingTest, MillionDeviceNonDivisibleRanges) {
  // The 1M ladder rung over 7 fleets: 1,000,000 = 7·142,857 + 1, so the
  // first shard takes the one-device remainder and boundaries stay exact.
  constexpr std::size_t kDevices = 1'000'000;
  constexpr std::size_t kShards = 7;
  const auto ranges = PartitionDevices(kDevices, kShards);
  ASSERT_EQ(ranges.size(), kShards);
  EXPECT_EQ(ranges.front().size(), 142'858u);
  EXPECT_EQ(ranges.back().size(), 142'857u);
  EXPECT_EQ(ranges.back().end, kDevices);
  std::size_t covered = 0;
  for (const auto& range : ranges) covered += range.size();
  EXPECT_EQ(covered, kDevices);
  // Spot-check ShardOf against every range boundary (first/last member),
  // where the remainder arithmetic is easiest to get wrong.
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ShardOf(ranges[s].begin, kDevices, kShards), s);
    EXPECT_EQ(ShardOf(ranges[s].end - 1, kDevices, kShards), s);
  }
  EXPECT_THROW(ShardOf(kDevices, kDevices, kShards), std::invalid_argument);
}

TEST(ShardingTest, DatasetOverloadUsesDeviceCount) {
  auto config = SmallConfig();
  config.num_devices = 10;
  const auto dataset = GenerateSyntheticAvazu(config);
  const auto ranges = PartitionDevices(dataset, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.back().end, dataset.devices.size());
}

}  // namespace
}  // namespace simdc::data
