// Durable crash-recovery suite: the deterministic simulation makes
// recovery a *bit-identity* property. A run killed at any injected I/O
// fault — torn append, torn checkpoint temp file, crash around either
// rename, fsync EIO, short read — must, after RestoreFromRecovery, finish
// with FlRunResult, aggregation counters and merged dispatch stats
// byte-for-byte equal to an uninterrupted run, across shard widths and
// payload codecs. The suite also unit-tests the persist primitives: CRC
// framing, log replay's valid-prefix truncation at every byte offset of
// the final record, checkpoint publication precedence (bin > tmp > prev),
// and the fault injector's seed-determinism.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/fl_engine.h"
#include "data/synth_avazu.h"
#include "persist/blob_log.h"
#include "persist/checkpoint.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"
#include "persist/wire.h"
#include "golden_digest.h"
#include "reference_fedavg.h"
#include "sim/event_loop.h"

namespace simdc::core {
namespace {

using persist::BlobLogRecord;
using persist::BlobLogWriter;
using persist::DurabilityMode;
using persist::FaultInjector;
using persist::FaultPlan;
using persist::RealFileIo;
using persist::SimulatedCrash;

/// Fresh per-test scratch directory (wiped on entry, left behind for
/// post-mortem inspection on failure).
std::string FreshDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "simdc_durable/" +
                    std::string(info->test_suite_name()) + "." + info->name();
  if (!tag.empty()) dir += "." + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

data::FederatedDataset SmallDataset(std::uint32_t hash_dim = 1u << 10) {
  data::SynthConfig config;
  config.num_devices = 24;
  config.records_per_device_mean = 10;
  config.num_test_devices = 6;
  config.hash_dim = hash_dim;
  config.seed = 21;
  return data::GenerateSyntheticAvazu(config);
}

FlExperimentConfig BaseConfig() {
  FlExperimentConfig config;
  config.rounds = 3;
  config.train.learning_rate = 0.05;
  config.train.epochs = 1;
  config.logical_fraction = 0.5;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(60.0);
  config.compute_seconds = 2.0;
  // Bounded deterministic upload delays strictly inside the period: every
  // round boundary is quiescent (nothing in flight when the schedule
  // fires) and no upload ever ties with the aggregation tick — the regime
  // in which checkpoint resume is bit-identical.
  config.delay_fn = [](const data::DeviceData& device, std::size_t round,
                       Rng&) {
    return Seconds(
        1.0 + static_cast<double>((device.device.value() * 7 + round * 3) % 40));
  };
  // Reclaim exercises Delete records in the log and the pending-delete
  // list in checkpoints.
  config.reclaim_payload_blobs = true;
  config.seed = 11;
  return config;
}

/// Everything a run reports that recovery must reproduce bit-for-bit.
struct RunOutcome {
  FlRunResult result;
  flow::DispatchStats stats;
  std::size_t messages_received = 0;
  std::size_t decode_failures = 0;
  std::size_t stale_rejections = 0;
  std::size_t store_errors = 0;
  std::size_t storage_bytes_written = 0;
};

RunOutcome CollectOutcome(FlEngine& engine, FlRunResult result) {
  RunOutcome out;
  out.result = std::move(result);
  out.stats = engine.dispatch_stats();
  out.messages_received = engine.aggregation().messages_received();
  out.decode_failures = engine.aggregation().decode_failures();
  out.stale_rejections = engine.aggregation().stale_rejections();
  out.store_errors = engine.aggregation().store_errors();
  out.storage_bytes_written = engine.storage().bytes_written();
  return out;
}

RunOutcome RunToCompletion(const data::FederatedDataset& dataset,
                           FlExperimentConfig config) {
  sim::EventLoop loop;
  FlEngine engine(loop, dataset, std::move(config));
  return CollectOutcome(engine, engine.Run());
}

/// Runs until the fault plan kills the process-in-miniature. Returns true
/// when the SimulatedCrash fired (some plans target I/O that a short run
/// never reaches; callers assert on the return).
bool CrashRun(const data::FederatedDataset& dataset,
              FlExperimentConfig config) {
  try {
    sim::EventLoop loop;
    FlEngine engine(loop, dataset, std::move(config));
    (void)engine.Run();
  } catch (const SimulatedCrash&) {
    return true;
  }
  return false;
}

/// The documented recovery protocol: try RestoreFromRecovery; when no
/// valid checkpoint survived the crash (NotFound), start over fresh on a
/// new engine — the log+checkpoint guarantee is "resume from the latest
/// durable boundary", and before the first checkpoint that boundary is
/// the empty run.
RunOutcome RecoverOrRerun(const data::FederatedDataset& dataset,
                          const FlExperimentConfig& config) {
  {
    sim::EventLoop loop;
    FlEngine engine(loop, dataset, config);
    const Status restored = engine.RestoreFromRecovery();
    if (restored.ok()) {
      return CollectOutcome(engine, engine.Run());
    }
    EXPECT_EQ(restored.error().code(), ErrorCode::kNotFound)
        << restored.ToString();
  }
  sim::EventLoop loop;
  FlEngine engine(loop, dataset, config);
  return CollectOutcome(engine, engine.Run());
}

void ExpectStatsIdentical(const flow::DispatchStats& a,
                          const flow::DispatchStats& b,
                          const std::string& label) {
  EXPECT_EQ(a.received, b.received) << label;
  EXPECT_EQ(a.sent, b.sent) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.batches_truncated, b.batches_truncated) << label;
  ASSERT_EQ(a.batches.size(), b.batches.size()) << label;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i], b.batches[i]) << label << " batch " << i;
    EXPECT_EQ(a.batch_keys[i], b.batch_keys[i]) << label << " batch " << i;
  }
}

void ExpectOutcomeIdentical(const RunOutcome& a, const RunOutcome& b,
                            const std::string& label) {
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size()) << label;
  for (std::size_t i = 0; i < a.result.rounds.size(); ++i) {
    const RoundMetrics& x = a.result.rounds[i];
    const RoundMetrics& y = b.result.rounds[i];
    EXPECT_EQ(x.round, y.round) << label << " round " << i;
    EXPECT_EQ(x.time, y.time) << label << " round " << i;
    EXPECT_EQ(x.clients, y.clients) << label << " round " << i;
    EXPECT_EQ(x.samples, y.samples) << label << " round " << i;
    EXPECT_EQ(x.test_accuracy, y.test_accuracy) << label << " round " << i;
    EXPECT_EQ(x.test_logloss, y.test_logloss) << label << " round " << i;
    EXPECT_EQ(x.train_accuracy, y.train_accuracy) << label << " round " << i;
    EXPECT_EQ(x.train_logloss, y.train_logloss) << label << " round " << i;
  }
  EXPECT_EQ(a.result.messages_emitted, b.result.messages_emitted) << label;
  EXPECT_EQ(a.result.messages_dropped, b.result.messages_dropped) << label;
  EXPECT_EQ(a.result.model_dim, b.result.model_dim) << label;
  ASSERT_EQ(a.result.final_weights.size(), b.result.final_weights.size())
      << label;
  EXPECT_EQ(0, std::memcmp(a.result.final_weights.data(),
                           b.result.final_weights.data(),
                           a.result.final_weights.size() * sizeof(float)))
      << label;
  EXPECT_EQ(a.result.final_bias, b.result.final_bias) << label;
  EXPECT_EQ(a.messages_received, b.messages_received) << label;
  EXPECT_EQ(a.decode_failures, b.decode_failures) << label;
  EXPECT_EQ(a.stale_rejections, b.stale_rejections) << label;
  EXPECT_EQ(a.store_errors, b.store_errors) << label;
  EXPECT_EQ(a.storage_bytes_written, b.storage_bytes_written) << label;
  ExpectStatsIdentical(a.stats, b.stats, label);
}

// ---------------------------------------------------------------------------
// Persist primitives.

TEST(WireTest, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  const char* digits = "123456789";
  const auto* bytes = reinterpret_cast<const std::byte*>(digits);
  EXPECT_EQ(persist::Crc32(std::span(bytes, 9)), 0xCBF43926u);
}

TEST(WireTest, ByteReaderRefusesShortBuffers) {
  std::vector<std::byte> buffer(3);
  persist::ByteReader reader(buffer);
  (void)reader.Get<std::uint32_t>();  // 4 bytes from a 3-byte buffer
  EXPECT_FALSE(reader.ok());
}

TEST(BlobLogTest, RoundTripsPutsAndDeletes) {
  const std::string dir = FreshDir("");
  const std::string path = persist::BlobLogPath(dir);
  std::vector<std::byte> payload = {std::byte{1}, std::byte{2}, std::byte{3}};

  BlobLogWriter writer(RealFileIo::Instance(), path);
  writer.AppendPut(BlobId(7), payload);
  writer.AppendDelete(BlobId(7));
  writer.AppendPut(BlobId(8), {});
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_FALSE(writer.HasPending());
  EXPECT_EQ(writer.commits(), 1u);

  std::vector<std::pair<persist::BlobRecordKind, std::uint64_t>> seen;
  auto bytes = RealFileIo::Instance().ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  const auto replay =
      persist::ReplayBlobLog(*bytes, [&](const BlobLogRecord& record) {
        seen.emplace_back(record.kind, record.id.value());
        if (record.id == BlobId(7) &&
            record.kind == persist::BlobRecordKind::kPut) {
          ASSERT_EQ(record.bytes.size(), payload.size());
          EXPECT_EQ(0, std::memcmp(record.bytes.data(), payload.data(),
                                   payload.size()));
        }
      });
  EXPECT_EQ(replay.records, 3u);
  EXPECT_FALSE(replay.truncated_tail);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen[0].first == persist::BlobRecordKind::kPut &&
              seen[0].second == 7u);
  EXPECT_TRUE(seen[1].first == persist::BlobRecordKind::kDelete &&
              seen[1].second == 7u);
  EXPECT_TRUE(seen[2].first == persist::BlobRecordKind::kPut &&
              seen[2].second == 8u);
}

TEST(BlobLogTest, MissingFileReplaysEmpty) {
  // An empty log replays as empty. A directory with neither a log nor a
  // checkpoint has nothing to resume from: NotFound, store untouched.
  const std::string dir = FreshDir("");
  ASSERT_FALSE(RealFileIo::Instance().Exists(persist::BlobLogPath(dir)));
  const auto replay =
      persist::ReplayBlobLog({}, [](const BlobLogRecord&) { FAIL(); });
  EXPECT_EQ(replay.records, 0u);
  EXPECT_FALSE(replay.truncated_tail);

  cloud::BlobStore store;
  persist::DurabilityConfig config;
  config.mode = DurabilityMode::kLogCheckpoint;
  config.dir = dir;
  auto recovered = persist::DurableStore(config).BeginResume(store);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().code(), ErrorCode::kNotFound)
      << recovered.error().ToString();
  EXPECT_EQ(store.blob_count(), 0u);
  EXPECT_EQ(store.next_id(), cloud::BlobStore().next_id());
  EXPECT_EQ(store.bytes_written(), 0u);
  EXPECT_EQ(store.bytes_read(), 0u);
  EXPECT_FALSE(RealFileIo::Instance().Exists(persist::BlobLogPath(dir)));
}

TEST(BlobLogTest, TruncationAtEveryByteYieldsValidPrefix) {
  // Satellite: truncate the log at EVERY byte offset of the final record
  // and prove replay always lands on the full two-record prefix — never a
  // crash, never a partial third record.
  const std::string dir = FreshDir("");
  const std::string path = persist::BlobLogPath(dir);
  RealFileIo& io = RealFileIo::Instance();

  BlobLogWriter writer(io, path);
  writer.AppendPut(BlobId(1), std::vector<std::byte>(40, std::byte{0xAA}));
  writer.AppendPut(BlobId(2), std::vector<std::byte>(17, std::byte{0xBB}));
  ASSERT_TRUE(writer.Commit().ok());
  const std::uint64_t prefix_end = writer.durable_size();
  writer.AppendPut(BlobId(3), std::vector<std::byte>(64, std::byte{0xCC}));
  ASSERT_TRUE(writer.Commit().ok());
  const std::uint64_t full_end = writer.durable_size();
  ASSERT_GT(full_end, prefix_end);

  auto original = io.ReadFile(path);
  ASSERT_TRUE(original.ok());
  for (std::uint64_t cut = prefix_end; cut < full_end; ++cut) {
    ASSERT_TRUE(io.WriteFile(path, std::span(original->data(),
                                             static_cast<std::size_t>(cut)))
                    .ok());
    auto bytes = io.ReadFile(path);
    ASSERT_TRUE(bytes.ok()) << "cut=" << cut;
    std::uint64_t records = 0;
    const auto replay = persist::ReplayBlobLog(
        *bytes, [&](const BlobLogRecord&) { ++records; });
    EXPECT_EQ(records, 2u) << "cut=" << cut;
    EXPECT_EQ(replay.valid_bytes, prefix_end) << "cut=" << cut;
    EXPECT_EQ(replay.truncated_tail, cut != prefix_end) << "cut=" << cut;
  }
}

TEST(BlobLogTest, CorruptRecordTruncatesFromThatPoint) {
  const std::string dir = FreshDir("");
  const std::string path = persist::BlobLogPath(dir);
  RealFileIo& io = RealFileIo::Instance();

  BlobLogWriter writer(io, path);
  writer.AppendPut(BlobId(1), std::vector<std::byte>(16, std::byte{0x11}));
  ASSERT_TRUE(writer.Commit().ok());
  const std::uint64_t prefix_end = writer.durable_size();
  writer.AppendPut(BlobId(2), std::vector<std::byte>(16, std::byte{0x22}));
  ASSERT_TRUE(writer.Commit().ok());

  // Flip one payload bit of the second record.
  auto bytes = io.ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[static_cast<std::size_t>(prefix_end) + 12] ^= std::byte{0x80};
  ASSERT_TRUE(io.WriteFile(path, *bytes).ok());

  auto corrupt = io.ReadFile(path);
  ASSERT_TRUE(corrupt.ok());
  std::uint64_t records = 0;
  const auto replay = persist::ReplayBlobLog(
      *corrupt, [&](const BlobLogRecord&) { ++records; });
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(replay.valid_bytes, prefix_end);
  EXPECT_TRUE(replay.truncated_tail);
}

/// Passes every call through to the real file system, except that its
/// second Append writes half its bytes and then fails: a short write that
/// ran into ENOSPC.
class HalfWriteOnSecondAppend final : public persist::FileIo {
 public:
  Status Append(const std::string& path,
                std::span<const std::byte> bytes) override {
    if (++appends_ != 2) return real_.Append(path, bytes);
    (void)real_.Append(path, bytes.first(bytes.size() / 2));
    return Unavailable("write '" + path + "': no space left on device");
  }
  Status Sync(const std::string& path) override { return real_.Sync(path); }
  Status WriteFile(const std::string& path,
                   std::span<const std::byte> bytes) override {
    return real_.WriteFile(path, bytes);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return real_.Rename(from, to);
  }
  Result<std::vector<std::byte>> ReadFile(const std::string& path) override {
    return real_.ReadFile(path);
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    return real_.FileSize(path);
  }
  Status TruncateTo(const std::string& path, std::uint64_t size) override {
    return real_.TruncateTo(path, size);
  }
  bool Exists(const std::string& path) override { return real_.Exists(path); }
  Status Remove(const std::string& path) override { return real_.Remove(path); }
  Status CreateDirs(const std::string& path) override {
    return real_.CreateDirs(path);
  }

 private:
  RealFileIo& real_ = RealFileIo::Instance();
  int appends_ = 0;
};

TEST(BlobLogTest, FailedAppendLeavesNoPartialFrame) {
  // A failed append that wrote part of its batch must not leave those
  // bytes in the file: the retry would land after them, and every offset
  // a checkpoint pins from then on would miss the record boundaries.
  const std::string dir = FreshDir("");
  const std::string path = persist::BlobLogPath(dir);
  HalfWriteOnSecondAppend io;
  const std::vector<std::byte> payload(100, std::byte{0x42});

  BlobLogWriter writer(io, path);
  writer.AppendPut(BlobId(1), payload);
  ASSERT_TRUE(writer.Commit().ok());
  writer.AppendPut(BlobId(2), payload);
  EXPECT_EQ(writer.Commit().error().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(writer.HasPending());
  writer.AppendPut(BlobId(3), payload);
  ASSERT_TRUE(writer.Commit().ok());

  // Each record is an 8-byte frame header, 17 bytes of kind, id and
  // length, and the 100 payload bytes.
  constexpr std::uint64_t kRecord = 8 + 17 + 100;
  std::vector<std::uint64_t> ids;
  auto bytes = io.ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  const auto replay =
      persist::ReplayBlobLog(*bytes, [&](const BlobLogRecord& record) {
        ids.push_back(record.id.value());
      });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(replay.valid_bytes, 3 * kRecord);
  EXPECT_FALSE(replay.truncated_tail);
  EXPECT_EQ(writer.durable_size(), 3 * kRecord);
  auto size = io.FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 3 * kRecord);
}

// Every field holds a distinct non-default value, so the round trip and
// the golden image below see a field that moves, swaps or changes width.
persist::CheckpointState SampleState() {
  persist::CheckpointState state;
  state.sequence = 7;
  state.log_offset = 206858;
  state.time = Seconds(120.0);
  state.resume_t0 = Seconds(125.0);
  state.next_round = 2;
  state.quiescent = false;
  state.next_message_id = 49;
  state.next_blob_id = 51;
  state.rounds_started = 3;
  state.last_recorded_round = 1;
  state.messages_emitted = 48;
  state.storage_bytes_written = 4096;
  state.storage_bytes_read = 2048;
  state.pending_delete_blobs = {BlobId(44), BlobId(45), BlobId(46)};
  state.aggregation.messages_received = 47;
  state.aggregation.decode_failures = 5;
  state.aggregation.stale_rejections = 6;
  state.aggregation.store_errors = 8;
  state.aggregation.deadline_commits = 9;
  state.aggregation.round_extensions = 10;
  state.aggregation.aborted_rounds = 11;
  state.aggregation.model_dim = 4;
  state.aggregation.global_weights = {0.5f, -1.25f, 0.0f, 3.75f};
  state.aggregation.global_bias = -0.125f;
  // Mid-round cascade state: non-zero compensation planes so the v3
  // round-trip covers all three accumulator planes bit-exactly.
  state.aggregation.accumulator = {1.5, -2.25, 0.0, 8.125};
  state.aggregation.accumulator_c1 = {1e-17, 0.0, -3e-18, 2e-20};
  state.aggregation.accumulator_c2 = {0.0, 1e-33, 0.0, -4e-35};
  state.aggregation.bias_accumulator = 0.75;
  state.aggregation.bias_accumulator_c1 = -5e-19;
  state.aggregation.bias_accumulator_c2 = 7e-36;
  state.aggregation.accumulator_samples = 12;
  state.aggregation.accumulator_clients = 3;
  cloud::AggregationRecord record;
  record.round = 1;
  record.time = Seconds(60.0);
  record.clients = 24;
  record.samples = 240;
  record.model_blob = BlobId(25);
  state.aggregation.history.push_back(record);
  RoundMetrics round;
  round.round = 1;
  round.time = Seconds(61.0);
  round.test_accuracy = 0.75;
  round.test_logloss = 0.5;
  round.train_accuracy = 0.8125;
  round.train_logloss = 0.4375;
  round.clients = 23;
  round.samples = 230;
  state.rounds.push_back(round);
  state.dispatch.received = 50;
  state.dispatch.sent = 46;
  state.dispatch.dropped = 4;
  state.dispatch.retries = 7;
  state.dispatch.retry_successes = 3;
  state.dispatch.deadline_drops = 1;
  state.dispatch.churn_losses = 2;
  state.dispatch.batches_truncated = 13;
  state.dispatch.batches = {{Seconds(3.0), 1}, {Seconds(4.0), 2}};
  state.dispatch.batch_keys = {17, 19};
  state.scalars.push_back({"loss", Seconds(62.0), 0.375});
  device::PerfSample sample;
  sample.phone = PhoneId(31);
  sample.task = TaskId(37);
  sample.time = Seconds(10.0);
  sample.current_ua = -150000;
  sample.voltage_mv = 3850.5;
  sample.cpu_percent = 37.25;
  sample.memory_kb = 524288;
  sample.bandwidth_bytes = 1048577;
  sample.stage = device::ApkStage::kTraining;
  state.perf_samples.push_back(sample);
  return state;
}

/// The two CRC-valid forgeries whose lists disagree with model_dim: 64
/// global weights past it, and cascade planes 64 elements longer.
void AppendGlobalWeights(persist::CheckpointState& state) {
  auto& weights = state.aggregation.global_weights;
  weights.resize(weights.size() + 64, 0.25f);
}
void LengthenCascade(persist::CheckpointState& state) {
  auto& a = state.aggregation;
  for (std::vector<double>* plane :
       {&a.accumulator, &a.accumulator_c1, &a.accumulator_c2}) {
    plane->resize(plane->size() + 64, 0.5);
  }
}
const std::vector<std::pair<std::string, void (*)(persist::CheckpointState&)>>
    kForgeries = {{"global-weights", &AppendGlobalWeights},
                  {"cascade-planes", &LengthenCascade}};

TEST(CheckpointTest, SerializeDeserializeRoundTrips) {
  const persist::CheckpointState state = SampleState();
  const std::vector<std::byte> image = persist::SerializeCheckpoint(state);
  auto decoded = persist::DeserializeCheckpoint(image);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->time, state.time);
  EXPECT_EQ(decoded->next_round, state.next_round);
  EXPECT_EQ(decoded->quiescent, state.quiescent);
  EXPECT_EQ(decoded->next_message_id, state.next_message_id);
  EXPECT_EQ(decoded->next_blob_id, state.next_blob_id);
  EXPECT_EQ(decoded->pending_delete_blobs, state.pending_delete_blobs);
  EXPECT_EQ(decoded->aggregation.global_weights,
            state.aggregation.global_weights);
  EXPECT_EQ(decoded->aggregation.global_bias, state.aggregation.global_bias);
  EXPECT_EQ(decoded->aggregation.accumulator, state.aggregation.accumulator);
  EXPECT_EQ(decoded->aggregation.accumulator_c1,
            state.aggregation.accumulator_c1);
  EXPECT_EQ(decoded->aggregation.accumulator_c2,
            state.aggregation.accumulator_c2);
  EXPECT_EQ(decoded->aggregation.bias_accumulator,
            state.aggregation.bias_accumulator);
  EXPECT_EQ(decoded->aggregation.bias_accumulator_c1,
            state.aggregation.bias_accumulator_c1);
  EXPECT_EQ(decoded->aggregation.bias_accumulator_c2,
            state.aggregation.bias_accumulator_c2);
  EXPECT_EQ(decoded->aggregation.accumulator_samples,
            state.aggregation.accumulator_samples);
  EXPECT_EQ(decoded->aggregation.accumulator_clients,
            state.aggregation.accumulator_clients);
  ASSERT_EQ(decoded->aggregation.history.size(), 1u);
  EXPECT_EQ(decoded->aggregation.history[0].model_blob, BlobId(25));
  ASSERT_EQ(decoded->rounds.size(), 1u);
  EXPECT_EQ(decoded->rounds[0].test_accuracy, 0.75);
  EXPECT_EQ(decoded->dispatch.batches, state.dispatch.batches);
  EXPECT_EQ(decoded->dispatch.batch_keys, state.dispatch.batch_keys);
  ASSERT_EQ(decoded->scalars.size(), 1u);
  EXPECT_EQ(decoded->scalars[0].series, "loss");
  ASSERT_EQ(decoded->perf_samples.size(), 1u);
  EXPECT_EQ(decoded->perf_samples[0].current_ua, -150000);
  EXPECT_EQ(decoded->perf_samples[0].stage, device::ApkStage::kTraining);
  // Fields the checks above skip: re-serializing the decoded state must
  // reproduce the image byte for byte.
  EXPECT_EQ(persist::SerializeCheckpoint(*decoded), image);
}

TEST(CheckpointTest, GoldenV3Image) {
  // One field walk writes and reads the image, so a round trip cannot see
  // a field that moved or changed width in both directions at once. The
  // digest pins SampleState()'s v3 bytes as the codec wrote them before
  // the walk existed.
  const std::vector<std::byte> image =
      persist::SerializeCheckpoint(SampleState());
  golden::Digest d;
  d.Add(image.size());
  for (const std::byte b : image) d.Add(static_cast<std::uint8_t>(b));
  golden::ExpectGolden("persist.checkpoint_v3_image", d.value());
}

TEST(CheckpointTest, TornOrCorruptImagesAreRejectedNotUB) {
  const std::vector<std::byte> image =
      persist::SerializeCheckpoint(SampleState());
  // Every truncation length must fail cleanly.
  for (std::size_t n = 0; n < image.size(); n += 7) {
    auto decoded = persist::DeserializeCheckpoint(std::span(image.data(), n));
    EXPECT_FALSE(decoded.ok()) << "prefix " << n;
  }
  // A flipped bit anywhere must fail the CRC.
  for (std::size_t i = 0; i < image.size(); i += 13) {
    std::vector<std::byte> corrupt = image;
    corrupt[i] ^= std::byte{0x01};
    EXPECT_FALSE(persist::DeserializeCheckpoint(corrupt).ok())
        << "flip at " << i;
  }
}

TEST(CheckpointTest, ListsThatDisagreeWithModelDimAreRejected) {
  // Recovery copies these lists into model_dim-sized planes, so an image
  // whose CRC holds but whose lists are longer is as malformed as a torn
  // one.
  for (const auto& [shape, forge] : kForgeries) {
    persist::CheckpointState state = SampleState();
    forge(state);
    auto decoded =
        persist::DeserializeCheckpoint(persist::SerializeCheckpoint(state));
    ASSERT_FALSE(decoded.ok()) << shape;
    EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError) << shape;
  }
}

TEST(CheckpointTest, PublicationSurvivesCrashAroundEitherRename) {
  // Window 1: crash before tmp -> bin leaves a valid tmp; window 2: crash
  // between demote and publish leaves tmp + prev. Either way recovery
  // finds a consistent image.
  const std::string dir = FreshDir("");
  RealFileIo& io = RealFileIo::Instance();
  persist::CheckpointState first = SampleState();
  first.sequence = 1;
  ASSERT_TRUE(persist::WriteCheckpoint(io, dir, first).ok());

  persist::CheckpointState second = first;
  second.sequence = 2;
  second.next_round = 3;
  {
    FaultPlan plan;
    plan.crash_before_rename = 1;  // demote bin -> prev
    FaultInjector faulty(plan);
    EXPECT_THROW((void)persist::WriteCheckpoint(faulty, dir, second),
                 SimulatedCrash);
    auto loaded = persist::LoadLatestCheckpoint(io, dir);
    ASSERT_TRUE(loaded.ok());
    // bin untouched; tmp (the newer image) wins the precedence order only
    // when bin is gone — here bin is still the first checkpoint... but tmp
    // holds the second. bin is tried first and validates.
    EXPECT_EQ(loaded->sequence, 1u);
  }
  {
    FaultPlan plan;
    plan.crash_after_rename = 1;  // after demote, before tmp -> bin
    FaultInjector faulty(plan);
    EXPECT_THROW((void)persist::WriteCheckpoint(faulty, dir, second),
                 SimulatedCrash);
    auto loaded = persist::LoadLatestCheckpoint(io, dir);
    ASSERT_TRUE(loaded.ok());
    // bin is gone (demoted); tmp carries the new image.
    EXPECT_EQ(loaded->sequence, 2u);
  }
}

TEST(FaultInjectorTest, TornLengthsAreSeedDeterministic) {
  const std::string dir_a = FreshDir("a");
  const std::string dir_b = FreshDir("b");
  const std::vector<std::byte> payload(257, std::byte{0x5A});
  auto torn_size = [&](const std::string& dir, std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.crash_on_append = 1;
    FaultInjector faulty(plan);
    const std::string path = dir + "/file.log";
    EXPECT_THROW((void)faulty.Append(path, payload), SimulatedCrash);
    auto size = RealFileIo::Instance().FileSize(path);
    return size.ok() ? *size : ~std::uint64_t{0};
  };
  const std::uint64_t first = torn_size(dir_a, 42);
  EXPECT_EQ(first, torn_size(dir_b, 42));
  EXPECT_LE(first, payload.size());
}

// ---------------------------------------------------------------------------
// Engine-level crash recovery.

FlExperimentConfig DurableConfig(const std::string& dir,
                                 persist::FileIo* io = nullptr) {
  FlExperimentConfig config = BaseConfig();
  config.durability.mode = DurabilityMode::kLogCheckpoint;
  config.durability.dir = dir;
  config.durability.io = io;
  return config;
}

TEST(DurableRecoveryTest, DurabilityModesAreBitIdenticalToOff) {
  const auto dataset = SmallDataset();
  const RunOutcome off = RunToCompletion(dataset, BaseConfig());
  ASSERT_EQ(off.result.rounds.size(), 3u);

  const std::string dir = FreshDir("ckpt");
  const RunOutcome ckpt = RunToCompletion(dataset, DurableConfig(dir));
  ExpectOutcomeIdentical(off, ckpt, "log+checkpoint");
  EXPECT_TRUE(RealFileIo::Instance().Exists(persist::BlobLogPath(dir)));
  EXPECT_TRUE(RealFileIo::Instance().Exists(persist::CheckpointPath(dir)));
}

TEST(DurableRecoveryTest, CheckpointRoundMirrorsEqualRoundsStarted) {
  // The engine keeps one round cursor; the v3 image still carries it
  // three times (next_round, rounds_started, last_recorded_round), and
  // every image a run writes holds the same value in all three.
  const auto dataset = SmallDataset();
  const std::string dir = FreshDir("");
  ASSERT_EQ(RunToCompletion(dataset, DurableConfig(dir)).result.rounds.size(),
            3u);
  RealFileIo& io = RealFileIo::Instance();
  // bin holds the last round's boundary, prev the one before it.
  const std::vector<std::pair<std::string, std::uint64_t>> images = {
      {persist::CheckpointPath(dir), 3}, {persist::CheckpointPrevPath(dir), 2}};
  for (const auto& [path, rounds] : images) {
    SCOPED_TRACE(path);
    auto bytes = io.ReadFile(path);
    ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();
    auto image = persist::DeserializeCheckpoint(*bytes);
    ASSERT_TRUE(image.ok()) << image.error().ToString();
    EXPECT_EQ(image->rounds_started, rounds);
    EXPECT_EQ(image->next_round, image->rounds_started);
    EXPECT_EQ(image->last_recorded_round, image->rounds_started);
  }
}

TEST(DurableRecoveryTest, CrashBeforeFirstCheckpointLeavesTheLogUncut) {
  // The run dies on its first log append, a torn write that leaves part
  // of the round's records in the file, before any checkpoint exists.
  // Recovery has nothing to resume from: it returns NotFound (the caller
  // runs fresh) and neither replays nor cuts the log.
  const auto dataset = SmallDataset();
  const std::string dir = FreshDir("");
  FaultPlan plan;
  plan.crash_on_append = 1;
  plan.torn_keep_bytes = 5000;  // past the first record, inside the batch
  FaultInjector faulty(plan);
  ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)));

  RealFileIo& io = RealFileIo::Instance();
  ASSERT_EQ(persist::LoadLatestCheckpoint(io, dir).error().code(),
            ErrorCode::kNotFound);
  const std::string log = persist::BlobLogPath(dir);
  auto crashed = io.ReadFile(log);
  ASSERT_TRUE(crashed.ok());
  ASSERT_EQ(crashed->size(), plan.torn_keep_bytes);
  std::uint64_t records = 0;
  const auto replay = persist::ReplayBlobLog(
      *crashed, [&](const BlobLogRecord&) { ++records; });
  ASSERT_GT(records, 0u);
  ASSERT_TRUE(replay.truncated_tail);  // the append was torn short

  sim::EventLoop loop;
  FlEngine engine(loop, dataset, DurableConfig(dir));
  const Status restored = engine.RestoreFromRecovery();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kNotFound)
      << restored.ToString();
  auto after = io.ReadFile(log);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), crashed->size());
  EXPECT_TRUE(*after == *crashed);
  EXPECT_EQ(engine.storage().blob_count(), 0u);
}

/// Counts the clean run's I/O operations so crash sweeps can target every
/// one of them.
struct IoProfile {
  std::uint64_t appends = 0;
  std::uint64_t write_files = 0;
  std::uint64_t renames = 0;
};

IoProfile ProfileCleanRun(const data::FederatedDataset& dataset,
                          const std::string& dir) {
  FaultInjector counting({});
  const RunOutcome outcome = RunToCompletion(
      dataset, DurableConfig(dir, &counting));
  EXPECT_EQ(outcome.result.rounds.size(), 3u);
  return {counting.appends(), counting.write_files(), counting.renames()};
}

TEST(DurableRecoveryTest, EveryInjectedCrashPointRecoversBitIdentical) {
  const auto dataset = SmallDataset();
  const RunOutcome reference = RunToCompletion(dataset, BaseConfig());
  const IoProfile profile = ProfileCleanRun(dataset, FreshDir("profile"));
  ASSERT_GE(profile.appends, 4u);     // >= 3 mid-round commit points
  ASSERT_EQ(profile.write_files, 3u);  // one checkpoint per round
  ASSERT_GE(profile.renames, 5u);      // 1 + 2 + 2 (first has no demote)

  std::vector<std::pair<std::string, FaultPlan>> plans;
  for (std::uint64_t n = 1; n <= profile.appends; ++n) {
    FaultPlan plan;
    plan.seed = 1000 + n;  // varies the torn length per crash point
    plan.crash_on_append = n;
    plans.emplace_back("append#" + std::to_string(n), plan);
  }
  for (std::uint64_t n = 1; n <= profile.write_files; ++n) {
    FaultPlan plan;
    plan.seed = 2000 + n;
    plan.crash_on_write_file = n;
    plans.emplace_back("write_file#" + std::to_string(n), plan);
  }
  for (std::uint64_t n = 1; n <= profile.renames; ++n) {
    FaultPlan before;
    before.crash_before_rename = n;
    plans.emplace_back("before_rename#" + std::to_string(n), before);
    FaultPlan after;
    after.crash_after_rename = n;
    plans.emplace_back("after_rename#" + std::to_string(n), after);
  }

  for (const auto& [label, plan] : plans) {
    SCOPED_TRACE(label);
    const std::string dir = FreshDir(label);
    FaultInjector faulty(plan);
    ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)))
        << "plan never fired";
    // Any checkpoint that survived the crash must describe a quiescent
    // boundary — the precondition for bit-identical resume.
    auto checkpoint =
        persist::LoadLatestCheckpoint(RealFileIo::Instance(), dir);
    if (checkpoint.ok()) {
      EXPECT_TRUE(checkpoint->quiescent);
    }
    const RunOutcome recovered = RecoverOrRerun(dataset, DurableConfig(dir));
    ExpectOutcomeIdentical(reference, recovered, label);
  }
}

TEST(DurableRecoveryTest, FsyncFailureDegradesWithoutChangingResults) {
  const auto dataset = SmallDataset();
  const RunOutcome reference = RunToCompletion(dataset, BaseConfig());
  for (const std::uint64_t n : {1u, 2u, 3u}) {
    const std::string dir = FreshDir("sync" + std::to_string(n));
    FaultPlan plan;
    plan.fail_sync_on = n;
    FaultInjector faulty(plan);
    const RunOutcome durable = RunToCompletion(
        dataset, DurableConfig(dir, &faulty));
    ExpectOutcomeIdentical(reference, durable,
                           "fail_sync_on=" + std::to_string(n));
  }
}

TEST(DurableRecoveryTest, ShortReadFallsBackToOlderCheckpoint) {
  const auto dataset = SmallDataset();
  const RunOutcome reference = RunToCompletion(dataset, BaseConfig());
  const std::string dir = FreshDir("");
  // Crash late, after at least two checkpoints exist.
  const IoProfile profile = ProfileCleanRun(dataset, FreshDir("profile"));
  FaultPlan crash;
  crash.crash_on_append = profile.appends;  // last commit of the run
  FaultInjector faulty(crash);
  ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)));

  // Recovery's first read (checkpoint.bin) comes back short: the image
  // fails its CRC and recovery falls back to checkpoint.prev — an older
  // boundary, more rounds re-executed, same final bits.
  FaultPlan short_read;
  short_read.seed = 77;
  short_read.short_read_on = 1;
  FaultInjector flaky(short_read);
  sim::EventLoop loop;
  FlEngine engine(loop, dataset, DurableConfig(dir, &flaky));
  ASSERT_TRUE(engine.RestoreFromRecovery().ok());
  const RunOutcome recovered = CollectOutcome(engine, engine.Run());
  ExpectOutcomeIdentical(reference, recovered, "short-read fallback");
}

TEST(DurableRecoveryTest, RecoveryReadsEachFileOnce) {
  // Recovery reads every checkpoint image and the blob log once: the log
  // is validated and replayed from one in-memory copy, so a large log is
  // read from disk once.
  const auto dataset = SmallDataset();
  const RunOutcome reference = RunToCompletion(dataset, BaseConfig());
  const IoProfile profile = ProfileCleanRun(dataset, FreshDir("profile"));
  const std::string dir = FreshDir("");
  FaultPlan crash;
  crash.crash_on_append = profile.appends;  // last commit of the run
  FaultInjector faulty(crash);
  ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)));

  RealFileIo& io = RealFileIo::Instance();
  std::uint64_t files = 0;
  for (const std::string& path :
       {persist::CheckpointPath(dir), persist::CheckpointTmpPath(dir),
        persist::CheckpointPrevPath(dir), persist::BlobLogPath(dir)}) {
    files += io.Exists(path) ? 1 : 0;
  }
  ASSERT_GE(files, 3u);  // bin, prev and the log at least

  FaultInjector counting({});
  sim::EventLoop loop;
  FlEngine engine(loop, dataset, DurableConfig(dir, &counting));
  ASSERT_TRUE(engine.RestoreFromRecovery().ok());
  EXPECT_EQ(counting.reads(), files);
  const RunOutcome recovered = CollectOutcome(engine, engine.Run());
  ExpectOutcomeIdentical(reference, recovered, "read-once recovery");
}

TEST(DurableRecoveryTest, CorruptPinnedLogPrefixIsRefused) {
  // The checkpoint describes the store as of the log offset it pins. A
  // log that no longer validates that far lost records the checkpoint
  // references: recovery must refuse it as DataLoss, not resume, and must
  // not cut the damaged log under the pin. Both variants leave no
  // checkpoint whose pin the log still covers, so no older checkpoint
  // could resume them either.
  const auto dataset = SmallDataset();
  const IoProfile profile = ProfileCleanRun(dataset, FreshDir("profile"));
  RealFileIo& io = RealFileIo::Instance();
  struct Variant {
    std::string label;
    bool flip;  // else cut the log to half of checkpoint.prev's pin
  };
  for (const Variant& variant :
       {Variant{"bit-flip", true}, Variant{"cut", false}}) {
    SCOPED_TRACE(variant.label);
    const std::string dir = FreshDir(variant.label);
    FaultPlan crash;
    crash.crash_on_append = profile.appends;  // last commit of the run
    FaultInjector faulty(crash);
    ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)));
    auto latest = persist::LoadLatestCheckpoint(io, dir);
    ASSERT_TRUE(latest.ok());
    const std::uint64_t pin = latest->log_offset;
    auto prev_image = io.ReadFile(persist::CheckpointPrevPath(dir));
    ASSERT_TRUE(prev_image.ok());
    auto prev = persist::DeserializeCheckpoint(*prev_image);
    ASSERT_TRUE(prev.ok());
    ASSERT_GT(prev->log_offset, 0u);
    ASSERT_LT(prev->log_offset, pin);

    const std::string log = persist::BlobLogPath(dir);
    if (variant.flip) {
      auto bytes = io.ReadFile(log);
      ASSERT_TRUE(bytes.ok());
      ASSERT_GT(bytes->size(), 16u);
      (*bytes)[16] ^= std::byte{0x01};
      ASSERT_TRUE(io.WriteFile(log, *bytes).ok());
    } else {
      ASSERT_TRUE(io.TruncateTo(log, prev->log_offset / 2).ok());
    }

    sim::EventLoop loop;
    FlEngine engine(loop, dataset, DurableConfig(dir));
    const Status restored = engine.RestoreFromRecovery();
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error().code(), ErrorCode::kDataLoss)
        << restored.ToString();
    EXPECT_NE(restored.error().message().find(std::to_string(pin)),
              std::string::npos)
        << restored.ToString();
    if (variant.flip) {
      auto size = io.FileSize(log);
      ASSERT_TRUE(size.ok());
      EXPECT_GE(*size, pin);
    }
  }
}

TEST(DurableRecoveryTest, FallsBackToOlderCheckpointWhosePinValidates) {
  // The log is cut just past checkpoint.prev's pin, under checkpoint.bin's:
  // bin references lost records, prev does not. Recovery must resume from
  // prev (re-executing one more round), drop bin so a later crash cannot
  // load it first, and finish bit-identical to an uninterrupted run.
  const auto dataset = SmallDataset();
  const RunOutcome reference = RunToCompletion(dataset, BaseConfig());
  const IoProfile profile = ProfileCleanRun(dataset, FreshDir("profile"));
  const std::string dir = FreshDir("");
  FaultPlan crash;
  crash.crash_on_append = profile.appends;  // last commit of the run
  FaultInjector faulty(crash);
  ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)));

  RealFileIo& io = RealFileIo::Instance();
  auto bin = persist::LoadLatestCheckpoint(io, dir);
  ASSERT_TRUE(bin.ok());
  auto prev_image = io.ReadFile(persist::CheckpointPrevPath(dir));
  ASSERT_TRUE(prev_image.ok());
  auto prev = persist::DeserializeCheckpoint(*prev_image);
  ASSERT_TRUE(prev.ok());
  const std::string log = persist::BlobLogPath(dir);
  auto bytes = io.ReadFile(log);
  ASSERT_TRUE(bytes.ok());
  // The first record boundary past prev's pin: walk the frames' lengths.
  std::uint64_t cut = 0;
  while (cut <= prev->log_offset) {
    persist::ByteReader header(
        std::span<const std::byte>(*bytes).subspan(cut, 8));
    cut += 8 + header.Get<std::uint32_t>();
  }
  ASSERT_LT(cut, bin->log_offset);
  ASSERT_TRUE(io.TruncateTo(log, cut).ok());

  sim::EventLoop loop;
  FlEngine engine(loop, dataset, DurableConfig(dir));
  const Status restored = engine.RestoreFromRecovery();
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  auto latest = persist::LoadLatestCheckpoint(io, dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->sequence, prev->sequence);
  EXPECT_EQ(latest->log_offset, prev->log_offset);
  auto size = io.FileSize(log);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, prev->log_offset);
  const RunOutcome recovered = CollectOutcome(engine, engine.Run());
  ExpectOutcomeIdentical(reference, recovered, "fallback to prev");
}

TEST(DurableRecoveryTest, CheckpointPinInsideARecordIsRefused) {
  // checkpoint.bin is re-serialized with its pin one byte short of the
  // record boundary it named: the image parses and the log validates past
  // the pin, but no prefix of the log ends there. Recovery refuses it as
  // DataLoss and cuts nothing from the log.
  const auto dataset = SmallDataset();
  const IoProfile profile = ProfileCleanRun(dataset, FreshDir("profile"));
  const std::string dir = FreshDir("");
  FaultPlan crash;
  crash.crash_on_append = profile.appends;  // last commit of the run
  FaultInjector faulty(crash);
  ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)));

  RealFileIo& io = RealFileIo::Instance();
  auto bin = persist::LoadLatestCheckpoint(io, dir);
  ASSERT_TRUE(bin.ok());
  ASSERT_GT(bin->log_offset, 0u);
  --bin->log_offset;
  ASSERT_TRUE(io.WriteFile(persist::CheckpointPath(dir),
                           persist::SerializeCheckpoint(*bin))
                  .ok());
  const std::string log = persist::BlobLogPath(dir);
  auto before = io.FileSize(log);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(*before, bin->log_offset);

  sim::EventLoop loop;
  FlEngine engine(loop, dataset, DurableConfig(dir));
  const Status restored = engine.RestoreFromRecovery();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kDataLoss)
      << restored.ToString();
  auto after = io.FileSize(log);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST(DurableRecoveryTest, ForgedCheckpointFallsBackToPrev) {
  // checkpoint.bin is re-serialized with lists longer than its model_dim:
  // its CRC holds, but the parser refuses it like a torn image, so
  // recovery resumes from checkpoint.prev and finishes bit-identical to an
  // uninterrupted run.
  const auto dataset = SmallDataset();
  const RunOutcome reference = RunToCompletion(dataset, BaseConfig());
  const IoProfile profile = ProfileCleanRun(dataset, FreshDir("profile"));
  RealFileIo& io = RealFileIo::Instance();
  for (const auto& [shape, forge] : kForgeries) {
    const std::string dir = FreshDir(shape);
    FaultPlan crash;
    crash.crash_on_append = profile.appends;  // last commit of the run
    FaultInjector faulty(crash);
    ASSERT_TRUE(CrashRun(dataset, DurableConfig(dir, &faulty)));
    auto prev_image = io.ReadFile(persist::CheckpointPrevPath(dir));
    ASSERT_TRUE(prev_image.ok()) << shape;
    auto prev = persist::DeserializeCheckpoint(*prev_image);
    ASSERT_TRUE(prev.ok()) << shape;
    auto bin = persist::LoadLatestCheckpoint(io, dir);
    ASSERT_TRUE(bin.ok()) << shape;
    ASSERT_NE(bin->sequence, prev->sequence) << shape;
    forge(*bin);
    ASSERT_TRUE(io.WriteFile(persist::CheckpointPath(dir),
                             persist::SerializeCheckpoint(*bin))
                    .ok());
    auto latest = persist::LoadLatestCheckpoint(io, dir);
    ASSERT_TRUE(latest.ok()) << shape;
    ASSERT_EQ(latest->sequence, prev->sequence) << shape;

    sim::EventLoop loop;
    FlEngine engine(loop, dataset, DurableConfig(dir));
    const Status restored = engine.RestoreFromRecovery();
    ASSERT_TRUE(restored.ok()) << shape << ": " << restored.ToString();
    auto size = io.FileSize(persist::BlobLogPath(dir));
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, prev->log_offset) << shape;
    const RunOutcome recovered = CollectOutcome(engine, engine.Run());
    ExpectOutcomeIdentical(reference, recovered, "forged " + shape);
  }
}

TEST(DurableRecoveryTest, CheckpointOfAnotherModelDimIsRefused) {
  // A dim-2^10 run's directory restored into a runtime whose dataset
  // hashes to 2^11: a typed refusal, not a throw, and nothing restored.
  const auto dataset = SmallDataset();
  const std::string dir = FreshDir("");
  ASSERT_EQ(RunToCompletion(dataset, DurableConfig(dir)).result.rounds.size(),
            3u);
  const auto wide_dataset = SmallDataset(1u << 11);
  sim::EventLoop loop;
  FlEngine engine(loop, wide_dataset, DurableConfig(dir));
  const Status restored = engine.RestoreFromRecovery();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(engine.aggregation().rounds_completed(), 0u);
  EXPECT_EQ(engine.aggregation().messages_received(), 0u);
}

TEST(DurableRecoveryTest, EngineLogTornAtEveryByteOfFinalRecordRecovers) {
  // Satellite at the engine level: complete a durable run, then truncate
  // the REAL blob log at every byte offset inside its final record and
  // prove replay always reconstructs the longest valid prefix.
  const auto dataset = SmallDataset();
  const std::string dir = FreshDir("");
  RealFileIo& io = RealFileIo::Instance();
  {
    const RunOutcome outcome = RunToCompletion(dataset, DurableConfig(dir));
    ASSERT_EQ(outcome.result.rounds.size(), 3u);
  }
  const std::string path = persist::BlobLogPath(dir);
  auto original = io.ReadFile(path);
  ASSERT_TRUE(original.ok());

  // Walk the frames to find every record boundary.
  std::vector<std::uint64_t> boundaries = {0};
  std::uint64_t total_records = 0;
  {
    const auto replay = persist::ReplayBlobLog(
        *original, [&](const BlobLogRecord&) { ++total_records; });
    ASSERT_FALSE(replay.truncated_tail);
    ASSERT_GT(total_records, 3u);
  }
  std::uint64_t pos = 0;
  while (pos < original->size()) {
    persist::ByteReader header(
        std::span(original->data() + pos, 2 * sizeof(std::uint32_t)));
    const auto length = header.Get<std::uint32_t>();
    pos += 2 * sizeof(std::uint32_t) + length;
    boundaries.push_back(pos);
  }
  ASSERT_EQ(boundaries.size(), total_records + 1);

  // Records are self-delimiting, so the suffix starting at any boundary is
  // itself a valid log. Sweep over a three-record sub-log instead of the
  // full file — same truncation semantics, ~25x less I/O per byte offset.
  const std::uint64_t base = boundaries[boundaries.size() - 4];
  const std::uint64_t last_start = boundaries[boundaries.size() - 2] - base;
  const std::uint64_t sub_size = original->size() - base;

  const std::string scratch_dir = FreshDir("scratch");
  const std::string scratch = persist::BlobLogPath(scratch_dir);
  for (std::uint64_t cut = last_start; cut < sub_size; ++cut) {
    ASSERT_TRUE(io.WriteFile(scratch,
                             std::span(original->data() + base,
                                       static_cast<std::size_t>(cut)))
                    .ok());
    auto bytes = io.ReadFile(scratch);
    ASSERT_TRUE(bytes.ok()) << "cut=" << cut;
    std::uint64_t records = 0;
    const auto replay = persist::ReplayBlobLog(
        *bytes, [&](const BlobLogRecord&) { ++records; });
    EXPECT_EQ(records, 2u) << "cut=" << cut;
    EXPECT_EQ(replay.valid_bytes, last_start) << "cut=" << cut;
  }
}

/// Serial oracle for the staged, lane-parallel aggregate: re-adds the
/// final round's uploads, which are still in the store (reclaim runs at the
/// NEXT round's start), into a plain FedAvgAggregator and expects the
/// engine's final model bit for bit. Under BaseConfig every device uploads
/// every round and nothing is dropped or stale, so the uploads are exactly
/// the blobs put between the previous and the final published model, in
/// device order.
void ExpectFinalRoundMatchesOracle(const FlEngine& engine,
                                   const data::FederatedDataset& dataset,
                                   const FlRunResult& result,
                                   const std::string& label) {
  const auto& history = engine.aggregation().history();
  ASSERT_GE(history.size(), 2u) << label;
  std::uint64_t blob = history[history.size() - 2].model_blob.value();
  std::vector<flow::Message> uploads;
  for (const data::DeviceData& device : dataset.devices) {
    flow::Message message;
    message.payload = BlobId(++blob);
    message.sample_count = device.examples.size();
    uploads.push_back(message);
  }
  ASSERT_EQ(blob + 1, history.back().model_blob.value()) << label;
  const std::vector<SimTime> arrivals(uploads.size(), 0);
  auto replay = reference::ReplayFedAvg(engine.storage(), result.model_dim,
                                        uploads, arrivals);
  ASSERT_TRUE(reference::CloseRound(replay, 0)) << label;
  EXPECT_EQ(replay.decode_failures, 0u) << label;
  EXPECT_EQ(replay.history[0].clients, result.rounds.back().clients) << label;
  EXPECT_EQ(replay.history[0].samples, result.rounds.back().samples) << label;
  ASSERT_EQ(replay.global.weights().size(), result.final_weights.size());
  EXPECT_EQ(0, std::memcmp(replay.global.weights().data(),
                           result.final_weights.data(),
                           result.final_weights.size() * sizeof(float)))
      << label;
  EXPECT_EQ(std::bit_cast<std::uint32_t>(replay.global.bias()),
            std::bit_cast<std::uint32_t>(result.final_bias))
      << label;
}

TEST(DurableRecoveryMatrixTest, AllShardWidthsAndCodecsRecoverBitIdentical) {
  const auto dataset = SmallDataset();
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    for (const ml::PayloadCodec codec :
         {ml::PayloadCodec::kFp32, ml::PayloadCodec::kFp16,
          ml::PayloadCodec::kInt8}) {
      // Every cell must match the serial FedAvg oracle AND recover
      // bit-identically through a mid-experiment crash.
      const std::string label = "width=" + std::to_string(width) +
                                " codec=" + std::string(ml::ToString(codec));
      SCOPED_TRACE(label);
      FlExperimentConfig base = BaseConfig();
      base.shards = width;
      base.payload_codec = codec;
      RunOutcome reference;
      {
        sim::EventLoop loop;
        FlEngine engine(loop, dataset, base);
        reference = CollectOutcome(engine, engine.Run());
        ASSERT_EQ(reference.result.rounds.size(), 3u);
        ExpectFinalRoundMatchesOracle(engine, dataset, reference.result, label);
      }

      const std::string dir = FreshDir(label);
      FaultPlan plan;
      plan.seed = width * 100 + static_cast<std::uint64_t>(codec);
      plan.crash_on_append = 4;  // mid-experiment commit
      FaultInjector faulty(plan);
      FlExperimentConfig crash_config = base;
      crash_config.durability.mode = DurabilityMode::kLogCheckpoint;
      crash_config.durability.dir = dir;
      crash_config.durability.io = &faulty;
      ASSERT_TRUE(CrashRun(dataset, crash_config)) << "plan never fired";

      FlExperimentConfig resume_config = base;
      resume_config.durability.mode = DurabilityMode::kLogCheckpoint;
      resume_config.durability.dir = dir;
      const RunOutcome recovered = RecoverOrRerun(dataset, resume_config);
      ExpectOutcomeIdentical(reference, recovered, label);
    }
  }
}

TEST(DurableRecoveryTest, SlaCountersMatchDispatchStats) {
  // Sla() sums dispatcher counters without touching the batch logs; the
  // sums must equal the full dispatch_stats() merge at widths 1 and 4,
  // and on a resumed engine whose counters include the checkpointed
  // prefix.
  const auto dataset = SmallDataset();
  FlExperimentConfig config = BaseConfig();
  config.strategy = flow::RealtimeAccumulated{{1}, 0.1};
  config.link.transient_failure_probability = 0.3;
  config.link.max_attempts = 2;
  config.link.backoff_initial = Seconds(1.0);
  const auto expect_match = [](const FlEngine& engine,
                               const FlRunResult& result,
                               const std::string& label) {
    const flow::DispatchStats stats = engine.dispatch_stats();
    const TaskSlaReport sla = engine.Sla();
    EXPECT_GT(stats.retries, 0u) << label;
    EXPECT_GT(stats.dropped, 0u) << label;
    EXPECT_EQ(sla.retries, stats.retries) << label;
    EXPECT_EQ(sla.deadline_drops, stats.deadline_drops) << label;
    EXPECT_EQ(sla.churn_losses, stats.churn_losses) << label;
    EXPECT_EQ(sla.messages_dropped, stats.dropped) << label;
    EXPECT_EQ(result.messages_dropped, stats.dropped) << label;
  };
  for (const std::size_t width : {1u, 4u}) {
    sim::EventLoop loop;
    FlExperimentConfig sharded = config;
    sharded.shards = width;
    FlEngine engine(loop, dataset, sharded);
    const FlRunResult result = engine.Run();
    expect_match(engine, result, "width=" + std::to_string(width));
  }

  const std::string dir = FreshDir("");
  FaultPlan plan;
  plan.crash_on_append = 4;
  FaultInjector faulty(plan);
  FlExperimentConfig durable = DurableConfig(dir, &faulty);
  durable.strategy = config.strategy;
  durable.link = config.link;
  ASSERT_TRUE(CrashRun(dataset, durable));
  durable.durability.io = nullptr;
  sim::EventLoop loop;
  FlEngine engine(loop, dataset, durable);
  ASSERT_TRUE(engine.RestoreFromRecovery().ok());
  const FlRunResult result = engine.Run();
  expect_match(engine, result, "recovered");
}

}  // namespace
}  // namespace simdc::core
