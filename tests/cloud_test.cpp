// Unit tests for the cloud services: blob storage, metrics database,
// aggregation service with both triggers and its one delivery hook (ticks
// of updates decoded the way a dispatcher decodes them), checked against
// the serial FedAvg oracle in reference_fedavg.h.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <span>
#include <thread>

#include "cloud/aggregation.h"
#include "common/thread_pool.h"
#include "cloud/database.h"
#include "cloud/payload_decoder.h"
#include "cloud/storage.h"
#include "ml/lr_model.h"
#include "reference_fedavg.h"
#include "sim/event_loop.h"

namespace simdc::cloud {
namespace {

std::vector<std::byte> Bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// ---------- BlobStore ----------

TEST(BlobStoreTest, PutGetDelete) {
  BlobStore store;
  const BlobId id = store.Put(Bytes({1, 2, 3}));
  EXPECT_TRUE(store.Contains(id));
  auto blob = store.Get(id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), 3u);
  EXPECT_TRUE(store.Delete(id).ok());
  EXPECT_FALSE(store.Contains(id));
  EXPECT_FALSE(store.Get(id).ok());
  EXPECT_FALSE(store.Delete(id).ok());
}

TEST(BlobStoreTest, DistinctIds) {
  BlobStore store;
  const BlobId a = store.Put(Bytes({1}));
  const BlobId b = store.Put(Bytes({1}));
  EXPECT_NE(a, b);
  EXPECT_EQ(store.blob_count(), 2u);
}

TEST(BlobStoreTest, ByteAccounting) {
  BlobStore store;
  const BlobId a = store.Put(Bytes({1, 2, 3, 4}));
  store.Put(Bytes({5, 6}));
  EXPECT_EQ(store.total_bytes(), 6u);
  EXPECT_EQ(store.bytes_written(), 6u);
  (void)store.Get(a);
  EXPECT_EQ(store.bytes_read(), 4u);
  ASSERT_TRUE(store.Delete(a).ok());
  EXPECT_EQ(store.total_bytes(), 2u);
  EXPECT_EQ(store.bytes_written(), 6u);  // cumulative
}

TEST(BlobStoreTest, GetSharedAliasesWithoutCopy) {
  BlobStore store;
  const BlobId id = store.Put(Bytes({1, 2, 3, 4}));
  auto a = store.GetShared(id);
  auto b = store.GetShared(id);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both reads alias the one stored buffer — the whole point of the
  // shared-ownership hot path.
  EXPECT_EQ(a->data(), b->data());
  EXPECT_EQ(a->owner(), b->owner());
  EXPECT_EQ(a->size(), 4u);
  EXPECT_EQ(store.bytes_read(), 8u);  // still accounted per read
  EXPECT_FALSE(store.GetShared(BlobId(99)).ok());
}

TEST(BlobStoreTest, SharedBlobSurvivesDelete) {
  // A reader holding a SharedBlob must keep its bytes valid (and
  // bit-stable) across a concurrent Delete — the decode plane may still
  // be chewing on a blob the serial plane garbage-collects.
  BlobStore store;
  const BlobId id = store.Put(Bytes({7, 8, 9}));
  auto blob = store.GetShared(id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_FALSE(store.Contains(id));
  ASSERT_EQ(blob->size(), 3u);
  EXPECT_EQ((*blob)[0], static_cast<std::byte>(7));
}

TEST(BlobStoreTest, PutPooledRoundTrip) {
  BlobStore store;
  const auto bytes = Bytes({10, 20, 30, 40, 50});
  const BlobId id = store.PutPooled(bytes);
  EXPECT_TRUE(store.Contains(id));
  auto copy = store.Get(id);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(*copy, bytes);
  EXPECT_EQ(store.bytes_written(), bytes.size());
  EXPECT_EQ(store.total_bytes(), bytes.size());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_EQ(store.total_bytes(), 0u);
}

TEST(BlobStoreTest, PooledBlobsShareArenaBlocks) {
  // Consecutive pooled puts bump-allocate out of the same slab: one heap
  // block for many blobs is the whole point of the arena path.
  BlobStore store;
  const BlobId a = store.PutPooled(Bytes({1, 2, 3}));
  const BlobId b = store.PutPooled(Bytes({4, 5}));
  EXPECT_EQ(store.arena_blocks_created(), 1u);
  auto sa = store.GetShared(a);
  auto sb = store.GetShared(b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa->owner(), sb->owner());  // same backing slab
  // Deleting one blob leaves its neighbors readable and intact.
  ASSERT_TRUE(store.Delete(a).ok());
  auto again = store.Get(b);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0], static_cast<std::byte>(4));
}

TEST(BlobStoreTest, ReclaimArenaWhileSharedBlobHeld) {
  // The reset-while-held hazard: a reader still holding a SharedBlob into
  // an arena block must keep its bytes valid across Delete + ReclaimArena;
  // the block is only recycled once the last holder lets go.
  BlobStore store;
  const auto bytes = Bytes({42, 43, 44});
  const BlobId id = store.PutPooled(bytes);
  auto held = store.GetShared(id);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_EQ(store.ReclaimArena(), 0u);  // held: must NOT be recycled
  EXPECT_EQ(held->size(), 3u);
  EXPECT_EQ((*held)[0], static_cast<std::byte>(42));
  EXPECT_EQ((*held)[2], static_cast<std::byte>(44));
  *held = SharedBlob();  // drop the last reference
  EXPECT_EQ(store.ReclaimArena(), 1u);
  EXPECT_EQ(store.arena_blocks_recycled(), 1u);
  // The recycled block serves the next pooled put: no new slab.
  (void)store.PutPooled(bytes);
  EXPECT_EQ(store.arena_blocks_created(), 1u);
}

TEST(BlobStoreTest, SharedBlobOutlivesStoreDestruction) {
  SharedBlob standalone;
  SharedBlob pooled;
  {
    BlobStore store;
    auto a = store.GetShared(store.Put(Bytes({1, 2})));
    auto b = store.GetShared(store.PutPooled(Bytes({3, 4})));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    standalone = *a;
    pooled = *b;
  }
  EXPECT_EQ(standalone[1], static_cast<std::byte>(2));
  EXPECT_EQ(pooled[0], static_cast<std::byte>(3));
}

/// Journal that records every mutation in order.
class RecordingJournal final : public BlobJournal {
 public:
  struct Record {
    BlobId id;
    std::vector<std::byte> bytes;
  };
  void OnPut(BlobId id, std::span<const std::byte> bytes) override {
    puts.push_back({id, {bytes.begin(), bytes.end()}});
  }
  void OnDelete(BlobId) override { ++deletes; }

  std::vector<Record> puts;
  std::size_t deletes = 0;
};

void Fill(std::span<std::byte> slot, const std::vector<std::byte>& bytes) {
  ASSERT_EQ(slot.size(), bytes.size());
  std::memcpy(slot.data(), bytes.data(), bytes.size());
}

TEST(BlobStoreTest, ReserveAssignsConsecutiveIdsInSlotOrder) {
  BlobStore store;
  (void)store.Put(Bytes({1}));
  const std::uint64_t next = store.next_id();
  PooledReservation reservation = store.ReservePooled(3, 4);
  ASSERT_EQ(reservation.size(), 3u);
  for (std::size_t i = 0; i < reservation.size(); ++i) {
    EXPECT_EQ(reservation.id(i), BlobId(next + i));
    EXPECT_EQ(reservation.slot(i).size(), 4u);
  }
  // The ids are taken at reservation: a Put before the commit follows them.
  EXPECT_EQ(store.next_id(), next + 3);
  EXPECT_EQ(store.Put(Bytes({2})), BlobId(next + 3));
  store.CommitPooled(std::move(reservation));
  EXPECT_EQ(store.blob_count(), 5u);
}

TEST(BlobStoreTest, ReservedBlobsInvisibleUntilCommit) {
  BlobStore store;
  PooledReservation reservation = store.ReservePooled(2, 3);
  const BlobId a = reservation.id(0);
  const BlobId b = reservation.id(1);
  Fill(reservation.slot(0), Bytes({1, 2, 3}));
  Fill(reservation.slot(1), Bytes({4, 5, 6}));
  for (const BlobId id : {a, b}) {
    EXPECT_FALSE(store.Contains(id));
    auto shared = store.GetShared(id);
    ASSERT_FALSE(shared.ok());
    EXPECT_EQ(shared.error().code(), ErrorCode::kNotFound);
  }
  EXPECT_EQ(store.blob_count(), 0u);
  EXPECT_EQ(store.bytes_written(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);

  store.CommitPooled(std::move(reservation));
  EXPECT_TRUE(store.Contains(a));
  auto got = store.Get(b);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Bytes({4, 5, 6}));
  EXPECT_EQ(store.bytes_written(), 6u);
  EXPECT_EQ(store.total_bytes(), 6u);
}

TEST(BlobStoreTest, ReserveCommitJournalsEachBlobInIdOrder) {
  BlobStore store;
  RecordingJournal journal;
  store.set_journal(&journal);
  PooledReservation reservation = store.ReservePooled(3, 2);
  const BlobId first = reservation.id(0);
  // Slots are written out of order, the way pool workers finish.
  for (std::size_t i = reservation.size(); i-- > 0;) {
    const int v = static_cast<int>(i);
    Fill(reservation.slot(i), Bytes({v, 10 + v}));
  }
  EXPECT_TRUE(journal.puts.empty());  // reserving journals nothing
  store.CommitPooled(std::move(reservation));
  ASSERT_EQ(journal.puts.size(), 3u);
  for (std::size_t i = 0; i < journal.puts.size(); ++i) {
    const int v = static_cast<int>(i);
    EXPECT_EQ(journal.puts[i].id, BlobId(first.value() + i));
    EXPECT_EQ(journal.puts[i].bytes, Bytes({v, 10 + v}));
  }
  EXPECT_EQ(journal.deletes, 0u);
  store.set_journal(nullptr);
}

TEST(BlobStoreTest, ReserveCommitMatchesPutPooled) {
  const std::vector<std::vector<std::byte>> payloads = {
      Bytes({1, 2, 3}), Bytes({4, 5, 6}), Bytes({7, 8, 9})};
  BlobStore pooled;
  BlobStore reserved;
  (void)pooled.Put(Bytes({0}));
  (void)reserved.Put(Bytes({0}));
  std::vector<BlobId> pooled_ids;
  for (const auto& payload : payloads) {
    pooled_ids.push_back(pooled.PutPooled(payload));
  }
  PooledReservation reservation = reserved.ReservePooled(payloads.size(), 3);
  std::vector<BlobId> reserved_ids;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    Fill(reservation.slot(i), payloads[i]);
    reserved_ids.push_back(reservation.id(i));
  }
  reserved.CommitPooled(std::move(reservation));

  EXPECT_EQ(reserved_ids, pooled_ids);
  EXPECT_EQ(reserved.next_id(), pooled.next_id());
  EXPECT_EQ(reserved.bytes_written(), pooled.bytes_written());
  EXPECT_EQ(reserved.total_bytes(), pooled.total_bytes());
  for (const BlobId id : pooled_ids) {
    auto a = pooled.Get(id);
    auto b = reserved.Get(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(BlobStoreTest, ReserveSlotLargerThanSlabGetsItsOwnBlock) {
  BlobStore store;
  const BlobId small = store.PutPooled(Bytes({1}));
  PooledReservation reservation =
      store.ReservePooled(1, ByteArena::kDefaultBlockBytes + 1);
  EXPECT_EQ(reservation.slot(0).size(), ByteArena::kDefaultBlockBytes + 1);
  const BlobId big = reservation.id(0);
  store.CommitPooled(std::move(reservation));
  const BlobId after = store.PutPooled(Bytes({2}));
  EXPECT_EQ(store.arena_blocks_created(), 2u);
  auto s = store.GetShared(small);
  auto b = store.GetShared(big);
  auto a = store.GetShared(after);
  ASSERT_TRUE(s.ok() && b.ok() && a.ok());
  EXPECT_EQ(b->size(), ByteArena::kDefaultBlockBytes + 1);
  EXPECT_NE(b->owner(), s->owner());
  // The oversized slot left the slab small blobs bump into in place.
  EXPECT_EQ(a->owner(), s->owner());
}

ml::LrModel ViewTestModel() {
  ml::LrModel model(64);
  model.bias() = -0.75f;
  for (std::uint32_t i = 0; i < model.dim(); ++i) {
    model.weights()[i] = static_cast<float>(i) * 0.5f - 7.0f;
  }
  return model;
}

ml::ModelView DecodeView(const BlobStore& store, BlobId id) {
  flow::Message message;
  message.payload = id;
  return BlobModelDecoder(store).Decode(std::move(message)).model;
}

void ExpectSameBits(const ml::ModelView& view, const ml::LrModel& model) {
  ASSERT_EQ(view.dim(), model.dim());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(view.bias()),
            std::bit_cast<std::uint32_t>(model.bias()));
  for (std::uint32_t i = 0; i < model.dim(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(view.weights()[i]),
              std::bit_cast<std::uint32_t>(model.weights()[i]))
        << "weight " << i;
  }
}

TEST(BlobStoreTest, DecodedFp32ViewAliasesTheStoredBlob) {
  const ml::LrModel model = ViewTestModel();
  const auto bytes = model.ToBytes();
  BlobStore store;
  for (const BlobId id : {store.PutPooled(bytes), store.Put(bytes)}) {
    const ml::ModelView view = DecodeView(store, id);
    ASSERT_TRUE(view);
    auto blob = store.GetShared(id);
    ASSERT_TRUE(blob.ok());
    // The weights are the blob's own bytes past the dim + bias header.
    EXPECT_EQ(static_cast<const void*>(view.weights().data()),
              static_cast<const void*>(blob->data() + 8));
    ExpectSameBits(view, model);
  }
}

TEST(BlobStoreTest, ReclaimArenaWhileModelViewHeld) {
  // A staged fp32 update reads its weights straight from an arena slab, so
  // the view must keep that slab alive and bit-stable across Delete and
  // ReclaimArena, and the slab is recycled only after the view drops.
  const ml::LrModel model = ViewTestModel();
  BlobStore store;
  const BlobId id = store.PutPooled(model.ToBytes());
  ml::ModelView view = DecodeView(store, id);
  ASSERT_TRUE(view);
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_EQ(store.ReclaimArena(), 0u);  // the view pins the slab
  const BlobId next = store.PutPooled(model.ToBytes(ml::PayloadCodec::kInt8));
  EXPECT_EQ(store.arena_blocks_created(), 2u);  // not served from the pin
  ExpectSameBits(view, model);
  view = ml::ModelView();
  EXPECT_EQ(store.ReclaimArena(), 1u);  // released: back on the free list
  EXPECT_EQ(store.arena_blocks_recycled(), 1u);
  EXPECT_TRUE(store.Contains(next));
}

TEST(BlobStoreTest, ModelViewOutlivesStoreDestruction) {
  const ml::LrModel model = ViewTestModel();
  ml::ModelView pooled;
  ml::ModelView standalone;
  {
    BlobStore store;
    pooled = DecodeView(store, store.PutPooled(model.ToBytes()));
    standalone = DecodeView(store, store.Put(model.ToBytes()));
    ASSERT_TRUE(pooled);
    ASSERT_TRUE(standalone);
  }
  ExpectSameBits(pooled, model);
  ExpectSameBits(standalone, model);
}

TEST(BlobStoreConcurrencyTest, ConcurrentPutGetDeleteStress) {
  // N writers Put/Delete while N readers Get/GetShared and decode — the
  // exact concurrency shape of the decoded payload plane (shard workers
  // fetch + decode while the serial plane publishes new globals). Run
  // under ASan/UBSan in CI, this is the data-race gate for BlobStore.
  BlobStore store;
  constexpr int kWriters = 3;
  constexpr int kReaders = 4;
  constexpr int kBlobsPerWriter = 200;
  ml::LrModel model(64);
  model.weights()[0] = 1.5f;
  const auto payload = model.ToBytes();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_id{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kBlobsPerWriter; ++i) {
        const BlobId id = store.Put(payload);
        std::uint64_t seen = max_id.load(std::memory_order_relaxed);
        while (seen < id.value() &&
               !max_id.compare_exchange_weak(seen, id.value(),
                                             std::memory_order_relaxed)) {
        }
        if (i % 3 == 0) (void)store.Delete(id);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t probe = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t ceiling = max_id.load(std::memory_order_relaxed);
        if (ceiling == 0) continue;
        probe = probe % ceiling + 1;
        if (r % 2 == 0) {
          auto blob = store.GetShared(BlobId(probe));
          if (blob.ok()) {
            auto decoded = ml::LrModel::FromBytesShared(blob->span());
            ASSERT_TRUE(decoded.ok());
            ASSERT_EQ((*decoded)->weights()[0], 1.5f);
          }
        } else {
          auto blob = store.Get(BlobId(probe));
          if (blob.ok()) {
            ASSERT_EQ(blob->size(), payload.size());
          }
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  // Two thirds of each writer's blobs survive its own deletes.
  EXPECT_GT(store.blob_count(), 0u);
  EXPECT_EQ(store.bytes_written(),
            payload.size() * kWriters * kBlobsPerWriter);
}

// ---------- MetricsDatabase ----------

device::PerfSample Sample(TaskId task, PhoneId phone, double t_s,
                          device::ApkStage stage, double current_ma,
                          std::int64_t bandwidth) {
  device::PerfSample s;
  s.task = task;
  s.phone = phone;
  s.time = Seconds(t_s);
  s.stage = stage;
  s.current_ua = -static_cast<std::int64_t>(current_ma * 1000);
  s.voltage_mv = 3850;
  s.cpu_percent = 5.0;
  s.memory_kb = 30000;
  s.bandwidth_bytes = bandwidth;
  return s;
}

TEST(MetricsDatabaseTest, QueryFiltersByTaskAndPhone) {
  MetricsDatabase db;
  db.Record(Sample(TaskId(1), PhoneId(1), 0, device::ApkStage::kNoApk, 50, 0));
  db.Record(Sample(TaskId(1), PhoneId(2), 0, device::ApkStage::kNoApk, 50, 0));
  db.Record(Sample(TaskId(2), PhoneId(1), 0, device::ApkStage::kNoApk, 50, 0));
  EXPECT_EQ(db.QueryTask(TaskId(1)).size(), 2u);
  EXPECT_EQ(db.QueryPhone(TaskId(1), PhoneId(2)).size(), 1u);
  EXPECT_EQ(db.sample_count(), 3u);
}

TEST(MetricsDatabaseTest, StageAggregationIntegratesEnergy) {
  MetricsDatabase db;
  // 10 samples 1 s apart at 360 mA → 360 mA · 10 s = 1 mAh.
  for (int i = 0; i <= 10; ++i) {
    db.Record(Sample(TaskId(1), PhoneId(1), i, device::ApkStage::kTraining,
                     360.0, 1024 * i));
  }
  const auto stages = db.AggregateStages(TaskId(1), PhoneId(1));
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, device::ApkStage::kTraining);
  EXPECT_NEAR(stages[0].energy_mah, 1.1, 0.05);  // 11 samples × 1 s
  EXPECT_NEAR(stages[0].comm_kb, 10.0, 0.01);
  EXPECT_EQ(stages[0].samples, 11u);
}

TEST(MetricsDatabaseTest, AverageStagesAcrossPhones) {
  MetricsDatabase db;
  for (int phone = 1; phone <= 2; ++phone) {
    const double ma = phone == 1 ? 100.0 : 300.0;
    for (int i = 0; i <= 5; ++i) {
      db.Record(Sample(TaskId(1), PhoneId(phone), i,
                       device::ApkStage::kTraining, ma, 0));
    }
  }
  const auto avg = db.AverageStages(TaskId(1), {PhoneId(1), PhoneId(2)});
  ASSERT_EQ(avg.size(), 1u);
  // Mean of per-phone energies: (100+300)/2 mA over 6 s.
  EXPECT_NEAR(avg[0].energy_mah, 200.0 * 6.0 / 3600.0, 0.01);
}

TEST(MetricsDatabaseTest, ScalarSeries) {
  MetricsDatabase db;
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(1), 0.5);
  const auto loss = db.QueryScalar("loss");
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_DOUBLE_EQ(loss[1].second, 0.7);
  EXPECT_TRUE(db.QueryScalar("nope").empty());
}

TEST(MetricsDatabaseTest, ScalarRowsPreserveGlobalInsertionOrder) {
  // Checkpoint replay depends on ScalarRows() returning the rows in the
  // exact order they were recorded, interleaved across series — not
  // grouped by series name.
  MetricsDatabase db;
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("acc", Seconds(1), 0.5);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(2), 0.6);
  const auto rows = db.ScalarRows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(db.scalar_row_count(), 4u);
  EXPECT_EQ(rows[0].series, "loss");
  EXPECT_EQ(rows[1].series, "acc");
  EXPECT_EQ(rows[2].series, "loss");
  EXPECT_EQ(rows[3].series, "acc");
  EXPECT_DOUBLE_EQ(rows[2].value, 0.7);
}

TEST(MetricsDatabaseTest, FlushRestoreRoundTrips) {
  MetricsDatabase db;
  db.Record(Sample(TaskId(1), PhoneId(1), 0, device::ApkStage::kTraining,
                   360.0, 1024));
  db.Record(Sample(TaskId(1), PhoneId(2), 1, device::ApkStage::kTraining,
                   200.0, 2048));
  db.RecordScalar("loss", Seconds(1), 0.9);
  db.RecordScalar("loss", Seconds(2), 0.7);
  db.RecordScalar("acc", Seconds(2), 0.6);
  EXPECT_EQ(db.Flush(), 5u);  // 2 samples + 3 scalar rows

  MetricsDatabase restored;
  restored.Restore(db.Samples(), db.ScalarRows());
  EXPECT_EQ(restored.sample_count(), db.sample_count());
  EXPECT_EQ(restored.scalar_row_count(), db.scalar_row_count());
  EXPECT_EQ(restored.QueryTask(TaskId(1)).size(), 2u);
  const auto loss = restored.QueryScalar("loss");
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_EQ(loss[0].first, Seconds(1));
  EXPECT_DOUBLE_EQ(loss[1].second, 0.7);
  const auto again = restored.ScalarRows();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].series, "acc");
}

// ---------- AggregationService ----------

class AggregationTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kDim = 16;

  flow::Message Upload(BlobStore& store, float weight0, std::size_t samples,
                       std::uint64_t id, std::size_t round = 0,
                       ml::PayloadCodec codec = ml::PayloadCodec::kFp32) {
    ml::LrModel model(kDim);
    model.weights()[0] = weight0;
    flow::Message m;
    m.id = MessageId(id);
    m.task = TaskId(1);
    m.device = DeviceId(id);
    m.round = round;
    m.payload = store.Put(model.ToBytes(codec));
    m.sample_count = samples;
    return m;
  }

  /// Fetches + decodes `messages` from `store` the way a decoding
  /// dispatcher does before it delivers a tick.
  static std::vector<flow::DecodedUpdate> Decode(
      const BlobStore& store, std::span<const flow::Message> messages) {
    BlobModelDecoder decoder(store);
    std::vector<flow::DecodedUpdate> updates;
    updates.reserve(messages.size());
    for (const flow::Message& message : messages) {
      updates.push_back(decoder.Decode(message));
    }
    return updates;
  }

  /// Delivers `message` as a one-update tick arriving at `arrival`.
  static void DeliverOne(AggregationService& service, const BlobStore& store,
                         const flow::Message& message, SimTime arrival) {
    service.DeliverDecodedBatch(Decode(store, std::span(&message, 1)),
                                std::span(&arrival, 1));
  }

  sim::EventLoop loop_;
  BlobStore store_;
};

TEST_F(AggregationTest, SampleThresholdTriggers) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 30;
  AggregationService service(loop_, store_, config);
  service.Start();

  DeliverOne(service, store_, Upload(store_, 1.0f, 10, 1), 0);
  DeliverOne(service, store_, Upload(store_, 2.0f, 10, 2), 0);
  EXPECT_EQ(service.rounds_completed(), 0u);  // 20 < 30
  DeliverOne(service, store_, Upload(store_, 3.0f, 10, 3), 0);
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_NEAR(service.global_model().weights()[0], 2.0, 1e-6);
  EXPECT_EQ(service.history()[0].clients, 3u);
  EXPECT_EQ(service.history()[0].samples, 30u);
  EXPECT_EQ(service.pending_samples(), 0u);  // aggregator reset
}

TEST_F(AggregationTest, BatchedDeliveryMatchesPerMessage) {
  // One tick crossing the sample threshold mid-batch must produce the same
  // rounds as the equivalent one-update ticks — and the round timestamp
  // must be the *triggering message's* arrival, not the tick's time.
  auto run = [&](bool batched) {
    BlobStore store;
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = 30;
    AggregationService service(loop_, store, config);
    std::vector<flow::Message> messages;
    std::vector<SimTime> arrivals;
    for (std::uint64_t i = 0; i < 5; ++i) {
      messages.push_back(
          Upload(store, static_cast<float>(i + 1), 10, i + 1));
      arrivals.push_back(Seconds(1.0 + static_cast<double>(i)));
    }
    if (batched) {
      service.DeliverDecodedBatch(Decode(store, messages), arrivals);
    } else {
      for (std::size_t i = 0; i < messages.size(); ++i) {
        DeliverOne(service, store, messages[i], arrivals[i]);
      }
    }
    return service.history();
  };
  const auto batched = run(true);
  const auto per_message = run(false);
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_EQ(per_message.size(), 1u);
  EXPECT_EQ(batched[0].time, Seconds(3.0));  // third message triggered
  EXPECT_EQ(batched[0].time, per_message[0].time);
  EXPECT_EQ(batched[0].clients, per_message[0].clients);
  EXPECT_EQ(batched[0].samples, per_message[0].samples);
}

TEST_F(AggregationTest, ScheduledTriggerFiresPeriodically) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(10.0);
  config.max_rounds = 3;
  AggregationService service(loop_, store_, config);
  service.Start();

  // Deliver a couple of updates before each tick.
  for (int round = 0; round < 3; ++round) {
    loop_.ScheduleAt(Seconds(10.0 * round + 1), [&, round] {
      DeliverOne(service, store_,
                 Upload(store_, static_cast<float>(round), 5,
                        static_cast<std::uint64_t>(round * 10 + 1)),
                 loop_.Now());
    });
  }
  loop_.Run();
  EXPECT_EQ(service.rounds_completed(), 3u);
  EXPECT_EQ(service.history()[0].time, Seconds(10.0));
  EXPECT_EQ(service.history()[2].time, Seconds(30.0));
}

TEST_F(AggregationTest, ScheduledTickWithNothingPendingSkips) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(5.0);
  config.max_rounds = 2;
  AggregationService service(loop_, store_, config);
  service.Start();
  loop_.ScheduleAt(Seconds(6.0), [&] {
    DeliverOne(service, store_, Upload(store_, 1.0f, 5, 1), loop_.Now());
  });
  loop_.RunUntil(Seconds(30.0));
  // First tick (t=5) had nothing; second tick (t=10) aggregated.
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.history()[0].time, Seconds(10.0));
  service.Stop();
  loop_.Run();
}

TEST_F(AggregationTest, MissingBlobCountsAsDecodeFailure) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = BlobId(999);  // never stored
  m.sample_count = 5;
  DeliverOne(service, store_, m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);
}

TEST_F(AggregationTest, StoreIoErrorBooksAsStoreErrorNotDecodeFailure) {
  // A non-kNotFound store failure (durability-plane I/O fault) must land in
  // store_errors, not decode_failures — the payload exists, the read broke.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const flow::Message good = Upload(store_, 1.0f, 10, 1);
  const flow::Message faulted = Upload(store_, 2.0f, 10, 2);
  store_.set_read_fault_hook([&](BlobId id) -> Status {
    if (id == faulted.payload) return Unavailable("injected read fault");
    return Status::Ok();
  });

  DeliverOne(service, store_, faulted, 0);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 0u);
  EXPECT_EQ(service.messages_received(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);  // update dropped, not absorbed

  // Healthy deliveries still flow, and a genuinely missing blob still books
  // as a decode failure alongside the I/O fault.
  DeliverOne(service, store_, good, 0);
  EXPECT_EQ(service.pending_samples(), 10u);
  flow::Message missing;
  missing.task = TaskId(1);
  missing.payload = BlobId(999);  // never stored
  missing.sample_count = 5;
  DeliverOne(service, store_, missing, 0);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, DecoderMapsStoreFaultsToDistinctFailures) {
  // BlobModelDecoder must keep the taxonomy the serial side accounts on:
  // kNotFound → kMissingBlob, any other store error → kStoreError.
  const flow::Message ok_msg = Upload(store_, 1.0f, 10, 1);
  const flow::Message faulted = Upload(store_, 2.0f, 10, 2);
  flow::Message missing;
  missing.task = TaskId(1);
  missing.payload = BlobId(999);
  missing.sample_count = 5;
  store_.set_read_fault_hook([&](BlobId id) -> Status {
    if (id == faulted.payload) return Unavailable("injected read fault");
    return Status::Ok();
  });

  BlobModelDecoder decoder(store_);
  const flow::DecodedUpdate decoded = decoder.Decode(ok_msg);
  EXPECT_TRUE(decoded.decoded());
  EXPECT_EQ(decoded.failure, flow::DecodedUpdate::Failure::kNone);

  const flow::DecodedUpdate io_fault = decoder.Decode(faulted);
  EXPECT_FALSE(io_fault.decoded());
  EXPECT_EQ(io_fault.failure, flow::DecodedUpdate::Failure::kStoreError);
  EXPECT_EQ(io_fault.error.error().code(), ErrorCode::kUnavailable);

  const flow::DecodedUpdate gone = decoder.Decode(missing);
  EXPECT_FALSE(gone.decoded());
  EXPECT_EQ(gone.failure, flow::DecodedUpdate::Failure::kMissingBlob);

  // The service books them into the counters the taxonomy names.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const std::vector<flow::DecodedUpdate> updates = {decoded, io_fault, gone};
  const std::vector<SimTime> arrivals = {0, 0, 0};
  service.DeliverDecodedBatch(updates, arrivals);
  EXPECT_EQ(service.messages_received(), 3u);
  EXPECT_EQ(service.store_errors(), 1u);
  EXPECT_EQ(service.decode_failures(), 1u);
  EXPECT_EQ(service.pending_samples(), 10u);
}

TEST_F(AggregationTest, CorruptBlobRejected) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = store_.Put(Bytes({1, 2, 3}));
  m.sample_count = 5;
  DeliverOne(service, store_, m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, WrongDimensionRejected) {
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  ml::LrModel other(kDim * 2);
  flow::Message m;
  m.task = TaskId(1);
  m.payload = store_.Put(other.ToBytes());
  m.sample_count = 5;
  DeliverOne(service, store_, m, 0);
  EXPECT_EQ(service.decode_failures(), 1u);
}

TEST_F(AggregationTest, PublishesModelBlobAndCallback) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 5;
  AggregationService service(loop_, store_, config);
  std::size_t callbacks = 0;
  service.set_on_aggregate(
      [&](const AggregationRecord& record, const ml::LrModel& model) {
        ++callbacks;
        EXPECT_TRUE(store_.Contains(record.model_blob));
        EXPECT_EQ(model.dim(), kDim);
      });
  DeliverOne(service, store_, Upload(store_, 4.0f, 5, 1), 0);
  EXPECT_EQ(callbacks, 1u);
}

// ---------- Decoded payload plane ----------

/// Same fixture, decoded-delivery cases: the serial service receives
/// DecodedUpdates (payloads fetched + decoded upstream, failures carried
/// along) and must keep every counter and every bit identical to the
/// serial decode-in-handler oracle, the historical legacy plane, however
/// the stream is cut into ticks. Pinned by name in the CI sanitizer job.
class AggregationDecodedTest : public AggregationTest {
 protected:
  /// Pushes `messages` through a fresh service in consecutive ticks of at
  /// most `tick_width` updates and returns what it observed.
  struct Outcome {
    std::size_t received = 0;
    std::size_t decode_failures = 0;
    std::size_t stale_rejections = 0;
    std::size_t rounds = 0;
    std::vector<AggregationRecord> history;
    std::vector<float> weights;
  };

  Outcome Run(BlobStore& store, const std::vector<flow::Message>& messages,
              const std::vector<SimTime>& arrivals, bool reject_stale,
              std::size_t tick_width) {
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = 30;
    config.reject_stale = reject_stale;
    AggregationService service(loop_, store, config);
    const std::vector<flow::DecodedUpdate> updates = Decode(store, messages);
    for (std::size_t begin = 0; begin < updates.size(); begin += tick_width) {
      const std::size_t n = std::min(tick_width, updates.size() - begin);
      service.DeliverDecodedBatch(std::span(updates).subspan(begin, n),
                                  std::span(arrivals).subspan(begin, n));
    }
    Outcome out;
    out.received = service.messages_received();
    out.decode_failures = service.decode_failures();
    out.stale_rejections = service.stale_rejections();
    out.rounds = service.rounds_completed();
    out.history = service.history();
    out.weights.assign(service.global_model().weights().begin(),
                       service.global_model().weights().end());
    return out;
  }

  /// The serial oracle over the same stream and trigger.
  static Outcome Legacy(const BlobStore& store,
                        const std::vector<flow::Message>& messages,
                        const std::vector<SimTime>& arrivals,
                        bool reject_stale) {
    const auto replay = reference::ReplayFedAvg(store, kDim, messages,
                                                arrivals, 30, reject_stale);
    Outcome out;
    out.received = replay.received;
    out.decode_failures = replay.decode_failures;
    out.stale_rejections = replay.stale_rejections;
    out.rounds = replay.history.size();
    out.history = replay.history;
    out.weights.assign(replay.global.weights().begin(),
                       replay.global.weights().end());
    return out;
  }

  static void ExpectSameOutcome(const Outcome& a, const Outcome& b) {
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.decode_failures, b.decode_failures);
    EXPECT_EQ(a.stale_rejections, b.stale_rejections);
    ASSERT_EQ(a.rounds, b.rounds);
    for (std::size_t r = 0; r < a.rounds; ++r) {
      EXPECT_EQ(a.history[r].time, b.history[r].time);
      EXPECT_EQ(a.history[r].clients, b.history[r].clients);
      EXPECT_EQ(a.history[r].samples, b.history[r].samples);
    }
    ASSERT_EQ(a.weights.size(), b.weights.size());
    EXPECT_EQ(0, std::memcmp(a.weights.data(), b.weights.data(),
                             a.weights.size() * sizeof(float)));
  }
};

TEST_F(AggregationDecodedTest, DecodedBatchMatchesLegacyWithFailures) {
  // A stream mixing valid updates, corrupt blobs, missing blobs, a
  // wrong-dimension model and a threshold crossing mid-batch must produce
  // the expected counters and round record, and identical counters,
  // round records and global-model bits as one tick, as one-update ticks
  // and through the serial oracle.
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  std::uint64_t id = 1;
  auto push = [&](flow::Message m) {
    arrivals.push_back(Seconds(static_cast<double>(id)));
    messages.push_back(std::move(m));
    ++id;
  };
  push(Upload(store, 1.0f, 10, id));
  {
    flow::Message corrupt;  // undecodable payload
    corrupt.id = MessageId(id);
    corrupt.task = TaskId(1);
    corrupt.payload = store.Put(Bytes({1, 2, 3}));
    corrupt.sample_count = 10;
    push(corrupt);
  }
  {
    flow::Message missing;  // payload never stored
    missing.id = MessageId(id);
    missing.task = TaskId(1);
    missing.payload = BlobId(424242);
    missing.sample_count = 10;
    push(missing);
  }
  push(Upload(store, 2.0f, 10, id));
  {
    ml::LrModel wrong(kDim * 2);  // decodes, but cannot accumulate
    flow::Message mismatch;
    mismatch.id = MessageId(id);
    mismatch.task = TaskId(1);
    mismatch.payload = store.Put(wrong.ToBytes());
    mismatch.sample_count = 10;
    push(mismatch);
  }
  push(Upload(store, 3.0f, 10, id));  // crosses the 30-sample threshold
  push(Upload(store, 4.0f, 10, id));  // lands in round 2's accumulator

  const auto one_tick = Run(store, messages, arrivals, /*reject_stale=*/false,
                            /*tick_width=*/messages.size());
  EXPECT_EQ(one_tick.received, 7u);
  EXPECT_EQ(one_tick.decode_failures, 3u);  // corrupt + missing + wrong dim
  EXPECT_EQ(one_tick.stale_rejections, 0u);
  ASSERT_EQ(one_tick.rounds, 1u);
  // Updates 1, 4 and 6 (10 samples each) close the round at update 6's
  // arrival, mid-tick; update 7 stays pending.
  EXPECT_EQ(one_tick.history[0].time, Seconds(6.0));
  EXPECT_EQ(one_tick.history[0].clients, 3u);
  EXPECT_EQ(one_tick.history[0].samples, 30u);
  EXPECT_FLOAT_EQ(one_tick.weights[0], 2.0f);  // mean of 1, 2 and 3
  ExpectSameOutcome(one_tick, Run(store, messages, arrivals,
                                  /*reject_stale=*/false, /*tick_width=*/1));
  ExpectSameOutcome(one_tick,
                    Legacy(store, messages, arrivals, /*reject_stale=*/false));
}

TEST_F(AggregationDecodedTest, StaleBadPayloadIsStaleNotDecodeFailure) {
  // The accounting-order contract: reject_stale is checked BEFORE the
  // (deferred) decode failure commits, so a stale message with a corrupt
  // or missing payload is a stale rejection — the speculative decode
  // error must not be booked.
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  {
    flow::Message corrupt_stale;
    corrupt_stale.id = MessageId(1);
    corrupt_stale.task = TaskId(1);
    corrupt_stale.round = 7;  // history is empty: anything != 0 is stale
    corrupt_stale.payload = store.Put(Bytes({9, 9}));
    corrupt_stale.sample_count = 5;
    messages.push_back(corrupt_stale);
    arrivals.push_back(Seconds(1.0));
  }
  {
    flow::Message missing_stale;
    missing_stale.id = MessageId(2);
    missing_stale.task = TaskId(1);
    missing_stale.round = 9;
    missing_stale.payload = BlobId(777777);
    missing_stale.sample_count = 5;
    messages.push_back(missing_stale);
    arrivals.push_back(Seconds(2.0));
  }
  // Fresh-round bad payloads for contrast: these DO count as decode
  // failures.
  {
    flow::Message corrupt_fresh;
    corrupt_fresh.id = MessageId(3);
    corrupt_fresh.task = TaskId(1);
    corrupt_fresh.round = 0;
    corrupt_fresh.payload = store.Put(Bytes({1}));
    corrupt_fresh.sample_count = 5;
    messages.push_back(corrupt_fresh);
    arrivals.push_back(Seconds(3.0));
  }
  {
    flow::Message missing_fresh;
    missing_fresh.id = MessageId(4);
    missing_fresh.task = TaskId(1);
    missing_fresh.round = 0;
    missing_fresh.payload = BlobId(888888);
    missing_fresh.sample_count = 5;
    messages.push_back(missing_fresh);
    arrivals.push_back(Seconds(4.0));
  }

  const auto legacy = Legacy(store, messages, arrivals, /*reject_stale=*/true);
  EXPECT_EQ(legacy.stale_rejections, 2u);
  EXPECT_EQ(legacy.decode_failures, 2u);
  EXPECT_EQ(legacy.received, 4u);
  ExpectSameOutcome(legacy, Run(store, messages, arrivals,
                                /*reject_stale=*/true,
                                /*tick_width=*/messages.size()));
}

TEST_F(AggregationDecodedTest, StoppedServiceIgnoresDecodedDeliveries) {
  BlobStore store;
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store, config);
  service.Stop();
  BlobModelDecoder decoder(store);
  const std::vector<flow::DecodedUpdate> updates = {
      decoder.Decode(Upload(store, 1.0f, 5, 1))};
  const std::vector<SimTime> arrivals = {Seconds(1.0)};
  service.DeliverDecodedBatch(updates, arrivals);
  EXPECT_EQ(service.messages_received(), 0u);
  EXPECT_EQ(service.decode_failures(), 0u);
}

TEST_F(AggregationTest, MismatchedTickSpansThrow) {
  // Every update needs its own arrival stamp: spans of unequal length are
  // rejected at the hook's entry, before any update is admitted.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  const std::vector<flow::Message> messages = {Upload(store_, 1.0f, 5, 1),
                                               Upload(store_, 2.0f, 5, 2)};
  const std::vector<flow::DecodedUpdate> updates = Decode(store_, messages);
  const std::vector<SimTime> stamps = {Seconds(1.0), Seconds(2.0),
                                       Seconds(3.0)};
  EXPECT_THROW(service.DeliverDecodedBatch(updates, stamps),
               std::invalid_argument);
  EXPECT_THROW(
      service.DeliverDecodedBatch(updates, std::span(stamps).first(1)),
      std::invalid_argument);
  EXPECT_EQ(service.messages_received(), 0u);
  EXPECT_EQ(service.pending_clients(), 0u);
}

TEST_F(AggregationTest, UpdateWithoutDecodeIsRejected) {
  // The service sits behind a decoding dispatcher. An update no decoder
  // ran on (message only, failure kNone) is a wiring error, not a decode
  // failure to count.
  AggregationConfig config;
  config.model_dim = kDim;
  AggregationService service(loop_, store_, config);
  flow::DecodedUpdate bare;
  bare.message = Upload(store_, 1.0f, 5, 1);
  const SimTime arrival = 0;
  EXPECT_THROW(service.DeliverDecodedBatch(std::span(&bare, 1),
                                           std::span(&arrival, 1)),
               std::invalid_argument);
  EXPECT_EQ(service.decode_failures(), 0u);
}

TEST_F(AggregationTest, StopIgnoresFurtherDeliveries) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1;
  AggregationService service(loop_, store_, config);
  service.Stop();
  DeliverOne(service, store_, Upload(store_, 4.0f, 5, 1), 0);
  EXPECT_EQ(service.rounds_completed(), 0u);
  EXPECT_EQ(service.messages_received(), 0u);
}

TEST_F(AggregationTest, MaxRoundsHonored) {
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1;
  config.max_rounds = 2;
  AggregationService service(loop_, store_, config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    DeliverOne(service, store_, Upload(store_, 1.0f, 1, i), 0);
  }
  EXPECT_EQ(service.rounds_completed(), 2u);
}

// ---------- Staged partial-sum accumulate ----------

/// Parity suite for the staged, lane-parallel accumulate against the
/// serial oracle (tests/reference_fedavg.h — the historical legacy
/// aggregate plane, kept test-side): every counter, round record,
/// published-model bit and cascade plane must match. Pinned by name in the
/// CI sanitizer job.
class AggregationPartialSumTest : public AggregationTest {
 protected:
  struct Outcome {
    std::size_t received = 0;
    std::size_t decode_failures = 0;
    std::size_t stale_rejections = 0;
    std::size_t store_errors = 0;
    std::vector<AggregationRecord> history;
    std::vector<float> weights;
    float bias = 0.0f;
    std::size_t pending_samples = 0;
    std::size_t pending_clients = 0;
    AggregationSnapshot snapshot;
  };

  static void DeliverDecoded(AggregationService& service, BlobStore& store,
                             const std::vector<flow::Message>& messages,
                             const std::vector<SimTime>& arrivals) {
    service.DeliverDecodedBatch(Decode(store, messages), arrivals);
  }

  Outcome Run(BlobStore& store, const std::vector<flow::Message>& messages,
              const std::vector<SimTime>& arrivals, ThreadPool* pool,
              std::size_t sample_threshold) {
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = sample_threshold;
    AggregationService service(loop_, store, config);
    service.set_thread_pool(pool);
    DeliverDecoded(service, store, messages, arrivals);
    return Capture(service);
  }

  static Outcome Capture(const AggregationService& service) {
    Outcome out;
    out.received = service.messages_received();
    out.decode_failures = service.decode_failures();
    out.stale_rejections = service.stale_rejections();
    out.store_errors = service.store_errors();
    out.history = service.history();
    out.weights.assign(service.global_model().weights().begin(),
                       service.global_model().weights().end());
    out.bias = service.global_model().bias();
    out.pending_samples = service.pending_samples();
    out.pending_clients = service.pending_clients();
    out.snapshot = service.Snapshot();
    return out;
  }

  /// The oracle's view in the same shape as Capture.
  static Outcome Oracle(const reference::FedAvgReplay& replay) {
    Outcome out;
    out.received = replay.received;
    out.decode_failures = replay.decode_failures;
    out.stale_rejections = replay.stale_rejections;
    out.store_errors = replay.store_errors;
    out.history = replay.history;
    out.weights.assign(replay.global.weights().begin(),
                       replay.global.weights().end());
    out.bias = replay.global.bias();
    const ml::FedAvgAggregator& open = replay.open;
    out.pending_samples = open.total_samples();
    out.pending_clients = open.clients();
    AggregationSnapshot& s = out.snapshot;
    s.accumulator.assign(open.accumulator().begin(), open.accumulator().end());
    s.accumulator_c1.assign(open.compensation1().begin(),
                            open.compensation1().end());
    s.accumulator_c2.assign(open.compensation2().begin(),
                            open.compensation2().end());
    s.bias_accumulator = open.bias_accumulator();
    s.bias_accumulator_c1 = open.bias_compensation1();
    s.bias_accumulator_c2 = open.bias_compensation2();
    s.accumulator_samples = open.total_samples();
    s.accumulator_clients = open.clients();
    return out;
  }

  static bool SameBytes(const std::vector<double>& a,
                        const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  }

  static void ExpectIdentical(const Outcome& a, const Outcome& b) {
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.decode_failures, b.decode_failures);
    EXPECT_EQ(a.stale_rejections, b.stale_rejections);
    EXPECT_EQ(a.store_errors, b.store_errors);
    EXPECT_EQ(a.pending_samples, b.pending_samples);
    EXPECT_EQ(a.pending_clients, b.pending_clients);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t r = 0; r < a.history.size(); ++r) {
      EXPECT_EQ(a.history[r].time, b.history[r].time);
      EXPECT_EQ(a.history[r].clients, b.history[r].clients);
      EXPECT_EQ(a.history[r].samples, b.history[r].samples);
    }
    ASSERT_EQ(a.weights.size(), b.weights.size());
    EXPECT_EQ(0, std::memcmp(a.weights.data(), b.weights.data(),
                             a.weights.size() * sizeof(float)));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.bias),
              std::bit_cast<std::uint32_t>(b.bias));
    // Snapshot parity covers the cascade planes bit-for-bit: bytes, not
    // values, so +0.0 and -0.0 differ.
    EXPECT_TRUE(SameBytes(a.snapshot.accumulator, b.snapshot.accumulator));
    EXPECT_TRUE(
        SameBytes(a.snapshot.accumulator_c1, b.snapshot.accumulator_c1));
    EXPECT_TRUE(
        SameBytes(a.snapshot.accumulator_c2, b.snapshot.accumulator_c2));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.snapshot.bias_accumulator),
              std::bit_cast<std::uint64_t>(b.snapshot.bias_accumulator));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.snapshot.bias_accumulator_c1),
              std::bit_cast<std::uint64_t>(b.snapshot.bias_accumulator_c1));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.snapshot.bias_accumulator_c2),
              std::bit_cast<std::uint64_t>(b.snapshot.bias_accumulator_c2));
    EXPECT_EQ(a.snapshot.accumulator_samples, b.snapshot.accumulator_samples);
    EXPECT_EQ(a.snapshot.accumulator_clients, b.snapshot.accumulator_clients);
  }

  /// Mixed stream: valid updates with varying magnitudes, a corrupt blob,
  /// a missing blob, a wrong-dimension model, threshold crossings.
  void BuildAdversarialStream(
      BlobStore& store, std::size_t valid_count,
      std::vector<flow::Message>& messages, std::vector<SimTime>& arrivals,
      ml::PayloadCodec codec = ml::PayloadCodec::kFp32) {
    std::uint64_t id = 1;
    auto push = [&](flow::Message m) {
      arrivals.push_back(Seconds(static_cast<double>(id)));
      messages.push_back(std::move(m));
      ++id;
    };
    for (std::size_t k = 0; k < valid_count; ++k) {
      const float w = static_cast<float>((k % 17) * 1000.0 - 8000.0) +
                      static_cast<float>(k) * 1e-4f;
      push(Upload(store, w, 1 + k % 7, id, /*round=*/0, codec));
      if (k == valid_count / 3) {
        flow::Message corrupt;
        corrupt.id = MessageId(id);
        corrupt.task = TaskId(1);
        corrupt.payload = store.Put(Bytes({1, 2, 3}));
        corrupt.sample_count = 4;
        push(corrupt);
      }
      if (k == valid_count / 2) {
        flow::Message missing;
        missing.id = MessageId(id);
        missing.task = TaskId(1);
        missing.payload = BlobId(424242);
        missing.sample_count = 4;
        push(missing);
        ml::LrModel wrong(kDim * 2);
        flow::Message mismatch;
        mismatch.id = MessageId(id + 1);
        mismatch.task = TaskId(1);
        mismatch.payload = store.Put(wrong.ToBytes());
        mismatch.sample_count = 4;
        push(mismatch);
      }
    }
  }

  /// Flushes of a pooled service fed 600 valid updates (and three bad
  /// ones) in one round that only AggregateNow closes: before and after
  /// the close. The closed round must match the serial oracle bit for bit.
  struct Cadence {
    std::size_t flushes_before_close = 0;
    std::size_t flushes_after_close = 0;
  };
  Cadence FlushCadence(ml::PayloadCodec codec) {
    BlobStore store;
    std::vector<flow::Message> messages;
    std::vector<SimTime> arrivals;
    BuildAdversarialStream(store, 600, messages, arrivals, codec);
    AggregationConfig config;
    config.model_dim = kDim;
    config.trigger = AggregationTrigger::kSampleThreshold;
    config.sample_threshold = 1000000;  // only AggregateNow closes
    AggregationService service(loop_, store, config);
    ThreadPool pool(4);
    service.set_thread_pool(&pool);
    DeliverDecoded(service, store, messages, arrivals);
    Cadence cadence;
    cadence.flushes_before_close = service.flushes();
    EXPECT_EQ(service.pending_clients(), 600u);
    EXPECT_TRUE(service.AggregateNow());
    cadence.flushes_after_close = service.flushes();

    auto replay = reference::ReplayFedAvg(store, kDim, messages, arrivals);
    EXPECT_TRUE(reference::CloseRound(replay, loop_.Now()));
    ExpectIdentical(Oracle(replay), Capture(service));
    return cadence;
  }
};

TEST_F(AggregationPartialSumTest, MatchesLegacyPlaneAcrossFailuresAndRounds) {
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  BuildAdversarialStream(store, 60, messages, arrivals);
  // Threshold 40 closes several rounds mid-batch; the tail stays pending.
  const auto oracle =
      Oracle(reference::ReplayFedAvg(store, kDim, messages, arrivals, 40));
  const auto staged = Run(store, messages, arrivals, /*pool=*/nullptr,
                          /*sample_threshold=*/40);
  EXPECT_GT(oracle.history.size(), 1u);
  EXPECT_GT(oracle.decode_failures, 0u);
  EXPECT_GT(oracle.pending_clients, 0u);  // staged tail visible on both
  ExpectIdentical(oracle, staged);
}

TEST_F(AggregationPartialSumTest, ParallelFlushMatchesLegacyBitForBit) {
  // The pool path: per-lane partials accumulated by ParallelFor and merged
  // ascending must publish the same bits as the serial oracle and as the
  // pool-less serial flush. Rounds close at the 900-sample threshold, each
  // flushing what it staged; fp32 views alias their stored payloads, so
  // none counts toward the flush cap (the int8 flush-cadence case below
  // covers capacity flushes).
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  BuildAdversarialStream(store, 600, messages, arrivals);
  ThreadPool pool(4);
  const auto oracle =
      Oracle(reference::ReplayFedAvg(store, kDim, messages, arrivals, 900));
  const auto serial = Run(store, messages, arrivals, /*pool=*/nullptr,
                          /*sample_threshold=*/900);
  const auto pooled =
      Run(store, messages, arrivals, &pool, /*sample_threshold=*/900);
  EXPECT_GT(oracle.history.size(), 0u);
  ExpectIdentical(oracle, pooled);
  ExpectIdentical(serial, pooled);
}

TEST_F(AggregationPartialSumTest, AliasingFp32ViewsFlushOnceAtRoundClose) {
  // fp32 views alias payloads the store keeps resident anyway, so staging
  // them bounds no memory: the round flushes once, when it closes.
  const Cadence cadence = FlushCadence(ml::PayloadCodec::kFp32);
  EXPECT_EQ(cadence.flushes_before_close, 0u);
  EXPECT_EQ(cadence.flushes_after_close, 1u);
}

TEST_F(AggregationPartialSumTest, OwningInt8ViewsFlushAtCapAndAtClose) {
  // int8 views own their dequantized buffers: every kFlushCap (256) of
  // them flushes, and the 88 left over flush at close.
  const Cadence cadence = FlushCadence(ml::PayloadCodec::kInt8);
  EXPECT_EQ(cadence.flushes_before_close, 2u);
  EXPECT_EQ(cadence.flushes_after_close, 3u);
}

TEST_F(AggregationPartialSumTest, MidRoundSnapshotRestoreContinuesIdentically) {
  // Cut a snapshot while updates are staged (no flush yet), restore into a
  // fresh service, deliver the rest: the recovered run must publish the
  // same bits as the uninterrupted run and the serial oracle.
  BlobStore store;
  std::vector<flow::Message> messages;
  std::vector<SimTime> arrivals;
  BuildAdversarialStream(store, 40, messages, arrivals);
  const std::size_t cut = 17;
  const std::vector<flow::Message> head(messages.begin(),
                                        messages.begin() + cut);
  const std::vector<flow::Message> tail(messages.begin() + cut,
                                        messages.end());
  const std::vector<SimTime> head_arrivals(arrivals.begin(),
                                           arrivals.begin() + cut);
  const std::vector<SimTime> tail_arrivals(arrivals.begin() + cut,
                                           arrivals.end());

  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 500;  // nothing closes: all staged

  AggregationService first(loop_, store, config);
  DeliverDecoded(first, store, head, head_arrivals);
  EXPECT_GT(first.pending_clients(), 0u);
  const AggregationSnapshot snapshot = first.Snapshot();

  AggregationService recovered(loop_, store, config);
  recovered.RestoreSnapshot(snapshot);
  EXPECT_EQ(recovered.pending_clients(), first.pending_clients());
  DeliverDecoded(recovered, store, tail, tail_arrivals);
  EXPECT_TRUE(recovered.AggregateNow());

  AggregationService uninterrupted(loop_, store, config);
  DeliverDecoded(uninterrupted, store, messages, arrivals);
  EXPECT_TRUE(uninterrupted.AggregateNow());
  ExpectIdentical(Capture(uninterrupted), Capture(recovered));

  auto replay = reference::ReplayFedAvg(store, kDim, messages, arrivals, 500);
  EXPECT_TRUE(reference::CloseRound(replay, loop_.Now()));
  ExpectIdentical(Oracle(replay), Capture(recovered));
}

TEST_F(AggregationPartialSumTest, QuorumAndAbortSeeStagedUpdates) {
  // The deadline policy must read the combined (flushed + staged) totals:
  // a quorum met purely by staged updates commits, and an abort discards
  // the staged entries.
  sim::EventLoop loop;
  BlobStore store;
  AggregationConfig config;
  config.model_dim = kDim;
  config.trigger = AggregationTrigger::kSampleThreshold;
  config.sample_threshold = 1000000;  // rounds close only via deadline
  config.round_quorum = 2;
  config.round_deadline = Seconds(10.0);
  config.max_round_extensions = 0;
  AggregationService service(loop, store, config);
  service.OnRoundOpened(0);
  loop.ScheduleAt(Seconds(1.0), [&] {
    DeliverDecoded(service, store,
                   {Upload(store, 1.0f, 3, 1), Upload(store, 3.0f, 5, 2)},
                   {Seconds(1.0), Seconds(1.0)});
  });
  loop.RunUntil(Seconds(11.0));
  // Two staged clients met the quorum at the deadline: degraded commit.
  ASSERT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.deadline_commits(), 1u);
  EXPECT_EQ(service.history()[0].clients, 2u);
  EXPECT_EQ(service.history()[0].samples, 8u);
  EXPECT_EQ(service.pending_samples(), 0u);

  // Next round: one staged update below quorum, no extensions -> abort
  // discards the staged entry.
  bool aborted = false;
  service.set_on_round_aborted([&](SimTime) { aborted = true; });
  service.OnRoundOpened(Seconds(11.0));
  loop.ScheduleAt(Seconds(12.0), [&] {
    DeliverDecoded(service, store, {Upload(store, 2.0f, 4, 3)},
                   {Seconds(12.0)});
  });
  loop.RunUntil(Seconds(30.0));
  EXPECT_TRUE(aborted);
  EXPECT_EQ(service.aborted_rounds(), 1u);
  EXPECT_EQ(service.rounds_completed(), 1u);
  EXPECT_EQ(service.pending_samples(), 0u);
  EXPECT_EQ(service.pending_clients(), 0u);
}

}  // namespace
}  // namespace simdc::cloud
