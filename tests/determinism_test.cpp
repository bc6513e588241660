// Determinism suite for parallel federated rounds: the
// FlExperimentConfig::parallelism knob must never change results, only
// wall time. Each client trains from its own seed-derived RNG stream into
// a dedicated slot, and updates are reduced in fixed client-index order on
// the event loop, so runs at any worker count are bit-for-bit identical.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "core/fl_engine.h"
#include "core/platform.h"
#include "data/synth_avazu.h"
#include "flow/rate_functions.h"
#include "flow/shard_merger.h"
#include "golden_digest.h"

namespace simdc::core {
namespace {

data::FederatedDataset Dataset(std::size_t devices = 120) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = 12;
  config.num_test_devices = 10;
  config.hash_dim = 1u << 12;
  config.seed = 33;
  return data::GenerateSyntheticAvazu(config);
}

FlExperimentConfig BaseConfig() {
  FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 2;
  config.logical_fraction = 0.5;  // both kernels in play
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.seed = 7;
  return config;
}

FlRunResult RunWith(const data::FederatedDataset& dataset,
                    FlExperimentConfig config, std::size_t parallelism) {
  sim::EventLoop loop;
  config.parallelism = parallelism;
  FlEngine engine(loop, dataset, std::move(config));
  return engine.Run();
}

/// Golden digest (tests/golden_digest.h) of one run at the given fleet
/// width and training parallelism.
std::uint64_t DigestOf(const data::FederatedDataset& dataset,
                       FlExperimentConfig config, std::size_t shards,
                       std::size_t parallelism) {
  sim::EventLoop loop;
  config.shards = shards;
  config.parallelism = parallelism;
  FlEngine engine(loop, dataset, std::move(config));
  const FlRunResult result = engine.Run();
  return golden::RunDigest(engine, result);
}

/// Bit-level equality: EXPECT_EQ on doubles is value equality, which is
/// what we want everywhere except the (impossible here) NaN case; weights
/// are compared as raw float vectors.
void ExpectIdentical(const FlRunResult& a, const FlRunResult& b,
                     std::size_t parallelism) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << "parallelism=" << parallelism;
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round);
    EXPECT_EQ(a.rounds[i].time, b.rounds[i].time);
    EXPECT_EQ(a.rounds[i].clients, b.rounds[i].clients);
    EXPECT_EQ(a.rounds[i].samples, b.rounds[i].samples);
    EXPECT_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
    EXPECT_EQ(a.rounds[i].test_logloss, b.rounds[i].test_logloss);
    EXPECT_EQ(a.rounds[i].train_accuracy, b.rounds[i].train_accuracy);
    EXPECT_EQ(a.rounds[i].train_logloss, b.rounds[i].train_logloss);
  }
  EXPECT_EQ(a.messages_emitted, b.messages_emitted);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  ASSERT_EQ(a.final_weights.size(), b.final_weights.size());
  EXPECT_EQ(0, std::memcmp(a.final_weights.data(), b.final_weights.data(),
                           a.final_weights.size() * sizeof(float)))
      << "parallelism=" << parallelism;
  EXPECT_EQ(a.final_bias, b.final_bias) << "parallelism=" << parallelism;
}

TEST(DeterminismTest, ParallelRunsBitIdenticalToSequential) {
  const auto dataset = Dataset();
  const auto sequential = RunWith(dataset, BaseConfig(), 1);
  ASSERT_EQ(sequential.rounds.size(), 3u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    const auto parallel = RunWith(dataset, BaseConfig(), parallelism);
    ExpectIdentical(sequential, parallel, parallelism);
  }
}

TEST(DeterminismTest, DropoutAndPartialParticipationUnaffectedByWorkers) {
  // Dropout draws and participant sampling run on the event loop / round
  // RNG streams, never on worker threads — so they too must be invariant.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.participants_per_round = 40;
  config.strategy = flow::RealtimeAccumulated{{1}, 0.3};
  const auto sequential = RunWith(dataset, config, 1);
  EXPECT_GT(sequential.messages_dropped, 0u);
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    ExpectIdentical(sequential, RunWith(dataset, config, parallelism),
                    parallelism);
  }
}

TEST(DeterminismTest, BatchedDeliveryBitIdenticalToPerMessageAtAllWidths) {
  // One delivery event per dispatch tick must reproduce, bit for bit,
  // the run the retired one-closure-per-message delivery produced — the
  // golden digest was captured from it — at any parallelism. Exercise real
  // multi-message batches (threshold 5) with dropout, plus a
  // sample-threshold trigger so rounds close *inside* delivery ticks.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{5}, 0.2};
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  const auto reference = RunWith(dataset, config, 1);
  ASSERT_EQ(reference.rounds.size(), 3u);
  EXPECT_GT(reference.messages_dropped, 0u);
  for (const std::size_t parallelism : {1u, 2u, 4u, 8u}) {
    golden::ExpectGolden("determinism.threshold5_dropout",
                         DigestOf(dataset, config, 1, parallelism),
                         "parallelism=" + std::to_string(parallelism));
  }
}

// ---------- Sharded fleets ----------

/// Everything a sharded run must keep bit-identical across widths:
/// FlRunResult (round metrics incl. arrival-derived times, weights),
/// the merged dispatch stats (arrival ticks, drops, sends), and the
/// cloud-side admission counters.
struct ShardedOutcome {
  FlRunResult result;
  flow::DispatchStats stats;
  std::size_t messages_received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
  /// golden::RunDigest of the run.
  std::uint64_t digest = 0;
};

FlExperimentConfig ShardableConfig() {
  auto config = BaseConfig();
  // Pass-through ticks + a disengaged rate limiter are the width-invariant
  // regime (see FlExperimentConfig::shards); message-keyed transmission
  // drops exercise the dropout plane.
  config.strategy = flow::RealtimeAccumulated{
      {1}, 0.25, flow::kShardWidthInvariantCapacity};
  return config;
}

ShardedOutcome RunShardedWith(const data::FederatedDataset& dataset,
                              FlExperimentConfig config, std::size_t shards,
                              std::size_t parallelism = 1) {
  sim::EventLoop loop;
  config.shards = shards;
  config.parallelism = parallelism;
  FlEngine engine(loop, dataset, std::move(config));
  ShardedOutcome out;
  out.result = engine.Run();
  out.stats = engine.dispatch_stats();
  out.messages_received = engine.aggregation().messages_received();
  out.decode_failures = engine.aggregation().decode_failures();
  out.stale_rejections = engine.aggregation().stale_rejections();
  out.digest = golden::RunDigest(engine, out.result);
  return out;
}

void ExpectStatsIdentical(const flow::DispatchStats& a,
                          const flow::DispatchStats& b, std::size_t shards) {
  EXPECT_EQ(a.received, b.received) << "shards=" << shards;
  EXPECT_EQ(a.sent, b.sent) << "shards=" << shards;
  EXPECT_EQ(a.dropped, b.dropped) << "shards=" << shards;
  EXPECT_EQ(a.retries, b.retries) << "shards=" << shards;
  EXPECT_EQ(a.retry_successes, b.retry_successes) << "shards=" << shards;
  EXPECT_EQ(a.deadline_drops, b.deadline_drops) << "shards=" << shards;
  EXPECT_EQ(a.churn_losses, b.churn_losses) << "shards=" << shards;
  EXPECT_EQ(a.batches, b.batches) << "shards=" << shards;
  EXPECT_EQ(a.batch_keys, b.batch_keys) << "shards=" << shards;
  EXPECT_EQ(a.batches_truncated, b.batches_truncated) << "shards=" << shards;
}

TEST(ShardedDeterminismTest, WidthsBitIdenticalToUnshardedScheduled) {
  // Scheduled aggregation: rounds close on the cloud plane while uploads
  // stream through per-shard dispatchers. shards=1 is the reference; the
  // golden digest "determinism.shardable_scheduled" pins its bits.
  const auto dataset = Dataset();
  const auto reference = RunShardedWith(dataset, ShardableConfig(), 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, ShardableConfig(), shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, WidthsBitIdenticalUnderThresholdTrigger) {
  // Sample-threshold rounds close INSIDE merged delivery ticks, and the
  // round timestamp is the triggering message's arrival — so this case
  // asserts arrival-stamp identity, not just final weights. Staleness
  // rejection makes the message→round assignment observable too.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  config.reject_stale = true;
  const auto reference = RunShardedWith(dataset, config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, config, shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
  }
}

TEST(ShardedDeterminismTest, PerMessageDeliveryMatchesBatchedAtAllWidths) {
  // Batched shard dispatchers must reproduce the merged stream the retired
  // per-message delivery produced (the golden digest) at every width, with
  // sequential and pool-advanced shard loops.
  const auto dataset = Dataset();
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t parallelism : {1u, 4u}) {
      golden::ExpectGolden(
          "determinism.shardable_scheduled",
          DigestOf(dataset, ShardableConfig(), shards, parallelism),
          "shards=" + std::to_string(shards) +
              " parallelism=" + std::to_string(parallelism));
    }
  }
}

TEST(ShardedDeterminismTest, PoolAdvancedShardsMatchSequential) {
  // Shard loops advance on the training pool when parallelism provides
  // one; worker scheduling must never leak into results. Also exercises
  // partial participation so shard participant subsets vary per round.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.participants_per_round = 80;
  const auto sequential = RunShardedWith(dataset, config, 4, /*parallelism=*/1);
  EXPECT_GT(sequential.result.messages_dropped, 0u);
  golden::ExpectGolden("determinism.partial_participation", sequential.digest,
                       "shards=4 parallelism=1");
  for (const std::size_t parallelism : {2u, 4u, 8u}) {
    const auto pooled = RunShardedWith(dataset, config, 4, parallelism);
    ExpectIdentical(sequential.result, pooled.result, parallelism);
    ExpectStatsIdentical(sequential.stats, pooled.stats, parallelism);
    golden::ExpectGolden("determinism.partial_participation", pooled.digest,
                         "shards=4 parallelism=" + std::to_string(parallelism));
  }
  // And width 1 gives the same run, pinned by the same golden digest.
  const auto reference = RunShardedWith(dataset, config, 1);
  ExpectIdentical(reference.result, sequential.result, 4);
  golden::ExpectGolden("determinism.partial_participation", reference.digest,
                       "shards=1");
}

TEST(ShardedDeterminismTest, SimultaneousUploadsStayWidthInvariant) {
  // Worst case for arrival stamping: EVERY device uploads at the same
  // microsecond. A finite capacity would serialize those collisions per
  // dispatcher (+1us steps), stamping them differently at each width;
  // the infinite-capacity regime gives zero serialization delay, so the
  // contract must hold even here. Threshold trigger makes the arrivals
  // observable as round timestamps.
  const auto dataset = Dataset();
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 500;
  config.delay_fn = [](const data::DeviceData&, std::size_t, Rng&) {
    return Seconds(1.0);  // identical for every device, every round
  };
  const auto reference = RunShardedWith(dataset, config, 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  golden::ExpectGolden("determinism.simultaneous_uploads", reference.digest,
                       "shards=1");
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const auto sharded = RunShardedWith(dataset, config, shards);
    ExpectIdentical(reference.result, sharded.result, shards);
    ExpectStatsIdentical(reference.stats, sharded.stats, shards);
    golden::ExpectGolden("determinism.simultaneous_uploads", sharded.digest,
                         "shards=" + std::to_string(shards));
  }
}

TEST(ShardedDeterminismTest, MultiMessageTicksDeterministicAtFixedWidth) {
  // Outside the width-invariance regime — multi-message thresholds and a
  // finite (default 700/s) capacity — runs must still be fully
  // deterministic at a fixed width, round-start pumps must stamp at the
  // round time (never a lockstep-barrier artifact behind it), and round
  // timestamps must stay monotone. Width 1 runs the same shard code as
  // width 4, including the round-start pump as a shard-loop event.
  const auto dataset = Dataset();
  auto config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{20, 100, 50}, 0.15};
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  for (const std::size_t shards : {1u, 4u}) {
    const auto first = RunShardedWith(dataset, config, shards);
    const auto again = RunShardedWith(dataset, config, shards);
    ExpectIdentical(first.result, again.result, shards);
    ExpectStatsIdentical(first.stats, again.stats, shards);
    ASSERT_EQ(first.result.rounds.size(), 3u) << "shards=" << shards;
    SimTime last = 0;
    for (const auto& round : first.result.rounds) {
      EXPECT_GE(round.time, last) << "shards=" << shards;
      last = round.time;
    }
  }
}

/// Config whose message→round admission is observable: sample-threshold
/// rounds close mid-tick and reject_stale turns late uploads into stale
/// rejections, pinning the deferred-accounting order.
FlExperimentConfig RejectStaleThresholdConfig() {
  auto config = ShardableConfig();
  config.trigger = cloud::AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 400;
  config.reject_stale = true;
  return config;
}

TEST(ShardedDeterminismTest, DecodedPlaneBitIdenticalToLegacyAtAllWidths) {
  // The cloud fetches and decodes each payload when it admits the
  // message. Every bit of the run — round metrics, weights, merged
  // dispatch stats, admission counters — must equal the golden digest the
  // retired decode-in-handler plane produced, at every shard width.
  const auto dataset = Dataset();
  const auto reference =
      RunShardedWith(dataset, RejectStaleThresholdConfig(), 1);
  ASSERT_EQ(reference.result.rounds.size(), 3u);
  EXPECT_GT(reference.result.messages_dropped, 0u);
  EXPECT_GT(reference.stale_rejections, 0u);
  EXPECT_EQ(reference.decode_failures, 0u);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    golden::ExpectGolden(
        "determinism.reject_stale_threshold",
        DigestOf(dataset, RejectStaleThresholdConfig(), shards, 1),
        "shards=" + std::to_string(shards));
  }
}

TEST(ShardedDeterminismTest, PartialSumPlaneBitIdenticalToLegacyAtAllWidths) {
  // Admitted updates are staged and accumulated into per-lane partial
  // aggregators on the worker pool, merged in fixed ascending order. With
  // a 4-wide pool the flush really runs lanes in parallel; the run must
  // still equal the golden digest the retired inline-add plane produced,
  // at every shard width — the FedAvg cascade is order-invariant.
  const auto dataset = Dataset();
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    golden::ExpectGolden(
        "determinism.reject_stale_threshold",
        DigestOf(dataset, RejectStaleThresholdConfig(), shards, 4),
        "shards=" + std::to_string(shards));
  }
}

TEST(ShardedDeterminismTest, QuantizedCodecsBitIdenticalAtAllWidths) {
  // fp16 and int8 payloads are dequantized before FedAvg reads them, and
  // where and when that runs must stay bit-invisible at every shard width
  // and parallelism. Every round admits more than 256 updates, so a flush
  // cadence keyed to a count of staged updates would run mid-round here.
  const auto dataset = Dataset(400);
  const std::pair<ml::PayloadCodec, const char*> codecs[] = {
      {ml::PayloadCodec::kFp16, "determinism.codec_fp16"},
      {ml::PayloadCodec::kInt8, "determinism.codec_int8"}};
  for (const auto& [codec, golden_name] : codecs) {
    auto config = ShardableConfig();
    config.payload_codec = codec;
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      for (const std::size_t parallelism : {1u, 4u}) {
        const std::string label =
            std::string(ml::ToString(codec)) + " shards=" +
            std::to_string(shards) + " parallelism=" +
            std::to_string(parallelism);
        const auto outcome = RunShardedWith(dataset, config, shards,
                                            parallelism);
        ASSERT_EQ(outcome.result.rounds.size(), 3u) << label;
        for (const auto& round : outcome.result.rounds) {
          EXPECT_GT(round.clients, 256u) << label;
        }
        golden::ExpectGolden(golden_name, outcome.digest, label);
      }
    }
  }
}

// ---------- Decode-failure accounting parity (flow-level harness) ----------

/// Outcome of pushing a hand-built message stream — valid, corrupt-blob,
/// missing-blob, stale and stale-with-bad-payload messages — through
/// dispatchers + shard merger into one AggregationService.
struct FailurePlaneOutcome {
  std::size_t received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
  std::size_t rounds = 0;
  std::vector<float> weights;
};

/// Runs the failure-mix stream at the given shard width; the service
/// fetches and decodes each payload on admission. Messages carry distinct
/// timestamps and globally ordered ids, so the (tick time, first id,
/// shard) merge reproduces one canonical delivery order at every width —
/// counters must not depend on width.
FailurePlaneOutcome RunFailureMix(std::size_t shards) {
  constexpr std::uint32_t kDim = 16;
  constexpr std::size_t kMessages = 24;
  sim::EventLoop cloud_loop;
  cloud::BlobStore store;
  cloud::AggregationConfig agg;
  agg.model_dim = kDim;
  agg.trigger = cloud::AggregationTrigger::kSampleThreshold;
  agg.sample_threshold = 30;  // fires mid-stream: later round-0 msgs stale
  agg.reject_stale = true;
  cloud::AggregationService service(cloud_loop, store, agg);

  flow::ShardMerger merger(shards, &service, &cloud_loop);
  std::vector<std::unique_ptr<sim::EventLoop>> loops;
  std::vector<std::unique_ptr<flow::Dispatcher>> dispatchers;
  for (std::size_t s = 0; s < shards; ++s) {
    loops.push_back(std::make_unique<sim::EventLoop>());
    dispatchers.push_back(std::make_unique<flow::Dispatcher>(
        *loops[s], TaskId(1),
        flow::RealtimeAccumulated{{1}, 0.0,
                                  flow::kShardWidthInvariantCapacity},
        &merger.channel(s), /*seed=*/11));
  }

  for (std::size_t i = 0; i < kMessages; ++i) {
    flow::Message m;
    m.id = MessageId(i + 1);
    m.task = TaskId(1);
    m.device = DeviceId(i + 1);
    m.sample_count = 5;
    switch (i % 6) {
      case 1:  // corrupt blob, fresh round
        m.payload = store.Put({std::byte{0x42}});
        break;
      case 2:  // missing blob, fresh round
        m.payload = BlobId(900000 + i);
        break;
      case 3: {  // valid payload but a round that is always stale
        ml::LrModel model(kDim);
        model.weights()[0] = static_cast<float>(i);
        m.round = 77;
        m.payload = store.Put(model.ToBytes());
        break;
      }
      case 4:  // corrupt blob AND always-stale round: must count stale
        m.round = 99;
        m.payload = store.Put({std::byte{0x01}, std::byte{0x02}});
        break;
      default: {  // valid, round 0 (stale once the threshold fires)
        ml::LrModel model(kDim);
        model.weights()[0] = static_cast<float>(i) * 0.5f;
        m.payload = store.Put(model.ToBytes());
        break;
      }
    }
    // Contiguous ranges, like data::PartitionDevices for equal blocks.
    const std::size_t per_shard = (kMessages + shards - 1) / shards;
    const std::size_t target = std::min(i / per_shard, shards - 1);
    flow::Dispatcher* dispatcher = dispatchers[target].get();
    loops[target]->ScheduleAt(
        Seconds(static_cast<double>(i + 1)),
        [dispatcher, m]() mutable { dispatcher->OnMessage(std::move(m)); });
  }
  for (auto& loop : loops) loop->Run();
  merger.DrainUpTo(Seconds(static_cast<double>(kMessages + 1)));

  FailurePlaneOutcome out;
  out.received = service.messages_received();
  out.decode_failures = service.decode_failures();
  out.stale_rejections = service.stale_rejections();
  out.rounds = service.rounds_completed();
  out.weights.assign(service.global_model().weights().begin(),
                     service.global_model().weights().end());
  return out;
}

TEST(ShardedDeterminismTest, DecodeFailureAccountingParityAcrossPlanes) {
  // Corrupt-blob and missing-blob messages — fresh and stale — must book
  // the expected decode_failures / stale_rejections, and every sharded
  // merge must book the same ones as the width-1 run, in the same order
  // (the service books payload failures in delivery order, after the
  // staleness verdict).
  const auto reference = RunFailureMix(1);
  // The mix by construction: the 16 round-0 messages close round 1 at the
  // sixth valid one (6 x 5 = 30 samples), after 6 corrupt/missing
  // fresh-round decode failures; the 8 round-77/99 messages and the 4
  // round-0 messages after the close are stale.
  EXPECT_EQ(reference.received, 24u);
  EXPECT_EQ(reference.decode_failures, 6u);
  EXPECT_EQ(reference.stale_rejections, 12u);
  EXPECT_EQ(reference.rounds, 1u);

  for (const std::size_t shards : {2u, 4u}) {
    const auto outcome = RunFailureMix(shards);
    EXPECT_EQ(outcome.received, reference.received) << "shards=" << shards;
    EXPECT_EQ(outcome.decode_failures, reference.decode_failures)
        << "shards=" << shards;
    EXPECT_EQ(outcome.stale_rejections, reference.stale_rejections)
        << "shards=" << shards;
    EXPECT_EQ(outcome.rounds, reference.rounds) << "shards=" << shards;
    ASSERT_EQ(outcome.weights.size(), reference.weights.size());
    EXPECT_EQ(0, std::memcmp(outcome.weights.data(), reference.weights.data(),
                             reference.weights.size() * sizeof(float)))
        << "shards=" << shards;
  }
}

TEST(ShardedDeterminismTest, ShardCountClampsToDevices) {
  // More fleets than devices must degrade gracefully to one device per
  // fleet, still bit-identical to the width-1 run.
  const auto dataset = Dataset(6);
  auto config = ShardableConfig();
  config.rounds = 2;
  const auto reference = RunShardedWith(dataset, config, 1);
  sim::EventLoop loop;
  auto wide = config;
  wide.shards = 64;
  wide.parallelism = 1;
  FlEngine engine(loop, dataset, wide);
  EXPECT_EQ(engine.shards(), 6u);
  const auto result = engine.Run();
  ExpectIdentical(reference.result, result, 64);
}

TEST(DeterminismTest, PlatformPoolMatchesPrivatePool) {
  // parallelism = 0 inherits the platform's shared pool; the result must
  // equal both the sequential run and a privately-pooled run.
  const auto dataset = Dataset(60);
  auto config = BaseConfig();
  config.rounds = 2;

  PlatformConfig platform_config;
  platform_config.worker_threads = 3;
  Platform platform(platform_config);
  auto inherited_config = config;
  inherited_config.parallelism = 0;
  const auto inherited = platform.RunFlExperiment(dataset, inherited_config);

  const auto sequential = RunWith(dataset, config, 1);
  ExpectIdentical(sequential, inherited, 0);
}

TEST(DeterminismTest, EngineOwnsPoolWhenWidthDiffers) {
  // A caller pool of the "wrong" width must not leak into training when
  // the experiment pins a different parallelism.
  const auto dataset = Dataset(60);
  auto config = BaseConfig();
  config.rounds = 2;
  ThreadPool caller_pool(2);

  auto run_with_pool = [&](std::size_t parallelism) {
    sim::EventLoop loop;
    auto pinned = config;
    pinned.parallelism = parallelism;
    FlEngine engine(loop, dataset, pinned, &caller_pool);
    return engine.Run();
  };
  const auto sequential = RunWith(dataset, config, 1);
  ExpectIdentical(sequential, run_with_pool(1), 1);   // knob forces sequential
  ExpectIdentical(sequential, run_with_pool(2), 2);   // matches caller pool
  ExpectIdentical(sequential, run_with_pool(5), 5);   // private 5-wide pool
}

}  // namespace
}  // namespace simdc::core
