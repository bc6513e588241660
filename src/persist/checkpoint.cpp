#include "persist/checkpoint.h"

#include <utility>

#include "persist/wire.h"

namespace simdc::persist {

namespace {

constexpr std::uint32_t kMagic = 0x50434453u;  // "SDCP" little-endian
// v2: fault-plane counters (dispatch retries/retry_successes/
// deadline_drops/churn_losses, aggregation deadline_commits/
// round_extensions/aborted_rounds). v3: the FedAvg cascade's two
// compensation planes (vector + bias), carried bit-exactly so recovery
// resumes the same represented accumulator sum (ml/fedavg.h). Pre-v3
// images are rejected — a crashed old-format run recovers with its old
// binary, not this one.
constexpr std::uint32_t kVersion = 3;

void PutAggregation(ByteWriter& w, const cloud::AggregationSnapshot& a) {
  w.Put<std::uint64_t>(a.history.size());
  for (const auto& r : a.history) {
    w.Put<std::uint64_t>(r.round);
    w.Put<std::int64_t>(r.time);
    w.Put<std::uint64_t>(r.clients);
    w.Put<std::uint64_t>(r.samples);
    w.Put<std::uint64_t>(r.model_blob.value());
  }
  w.Put<std::uint64_t>(a.messages_received);
  w.Put<std::uint64_t>(a.decode_failures);
  w.Put<std::uint64_t>(a.stale_rejections);
  w.Put<std::uint64_t>(a.store_errors);
  w.Put<std::uint64_t>(a.deadline_commits);
  w.Put<std::uint64_t>(a.round_extensions);
  w.Put<std::uint64_t>(a.aborted_rounds);
  w.Put<std::uint32_t>(a.model_dim);
  w.Put<std::uint64_t>(a.global_weights.size());
  for (const float v : a.global_weights) w.Put<float>(v);
  w.Put<float>(a.global_bias);
  w.Put<std::uint64_t>(a.accumulator.size());
  for (const double v : a.accumulator) w.Put<double>(v);
  // v3: the compensation planes share the accumulator's length, so no
  // separate size prefixes.
  for (const double v : a.accumulator_c1) w.Put<double>(v);
  for (const double v : a.accumulator_c2) w.Put<double>(v);
  w.Put<double>(a.bias_accumulator);
  w.Put<double>(a.bias_accumulator_c1);
  w.Put<double>(a.bias_accumulator_c2);
  w.Put<std::uint64_t>(a.accumulator_samples);
  w.Put<std::uint64_t>(a.accumulator_clients);
}

cloud::AggregationSnapshot GetAggregation(ByteReader& r) {
  cloud::AggregationSnapshot a;
  const auto history = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < history; ++i) {
    cloud::AggregationRecord rec;
    rec.round = static_cast<std::size_t>(r.Get<std::uint64_t>());
    rec.time = r.Get<std::int64_t>();
    rec.clients = static_cast<std::size_t>(r.Get<std::uint64_t>());
    rec.samples = static_cast<std::size_t>(r.Get<std::uint64_t>());
    rec.model_blob = BlobId(r.Get<std::uint64_t>());
    a.history.push_back(rec);
  }
  a.messages_received = r.Get<std::uint64_t>();
  a.decode_failures = r.Get<std::uint64_t>();
  a.stale_rejections = r.Get<std::uint64_t>();
  a.store_errors = r.Get<std::uint64_t>();
  a.deadline_commits = r.Get<std::uint64_t>();
  a.round_extensions = r.Get<std::uint64_t>();
  a.aborted_rounds = r.Get<std::uint64_t>();
  a.model_dim = r.Get<std::uint32_t>();
  const auto weights = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < weights; ++i) {
    a.global_weights.push_back(r.Get<float>());
  }
  a.global_bias = r.Get<float>();
  const auto acc = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < acc; ++i) {
    a.accumulator.push_back(r.Get<double>());
  }
  for (std::uint64_t i = 0; r.ok() && i < acc; ++i) {
    a.accumulator_c1.push_back(r.Get<double>());
  }
  for (std::uint64_t i = 0; r.ok() && i < acc; ++i) {
    a.accumulator_c2.push_back(r.Get<double>());
  }
  a.bias_accumulator = r.Get<double>();
  a.bias_accumulator_c1 = r.Get<double>();
  a.bias_accumulator_c2 = r.Get<double>();
  a.accumulator_samples = r.Get<std::uint64_t>();
  a.accumulator_clients = r.Get<std::uint64_t>();
  return a;
}

void PutDispatch(ByteWriter& w, const flow::DispatchStats& d) {
  w.Put<std::uint64_t>(d.received);
  w.Put<std::uint64_t>(d.sent);
  w.Put<std::uint64_t>(d.dropped);
  w.Put<std::uint64_t>(d.retries);
  w.Put<std::uint64_t>(d.retry_successes);
  w.Put<std::uint64_t>(d.deadline_drops);
  w.Put<std::uint64_t>(d.churn_losses);
  w.Put<std::uint64_t>(d.batches_truncated);
  w.Put<std::uint64_t>(d.batches.size());
  for (const auto& [time, count] : d.batches) {
    w.Put<std::int64_t>(time);
    w.Put<std::uint64_t>(count);
  }
  w.Put<std::uint64_t>(d.batch_keys.size());
  for (const std::uint64_t key : d.batch_keys) w.Put<std::uint64_t>(key);
}

flow::DispatchStats GetDispatch(ByteReader& r) {
  flow::DispatchStats d;
  d.received = static_cast<std::size_t>(r.Get<std::uint64_t>());
  d.sent = static_cast<std::size_t>(r.Get<std::uint64_t>());
  d.dropped = static_cast<std::size_t>(r.Get<std::uint64_t>());
  d.retries = static_cast<std::size_t>(r.Get<std::uint64_t>());
  d.retry_successes = static_cast<std::size_t>(r.Get<std::uint64_t>());
  d.deadline_drops = static_cast<std::size_t>(r.Get<std::uint64_t>());
  d.churn_losses = static_cast<std::size_t>(r.Get<std::uint64_t>());
  d.batches_truncated = static_cast<std::size_t>(r.Get<std::uint64_t>());
  const auto batches = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < batches; ++i) {
    const auto time = r.Get<std::int64_t>();
    const auto count = r.Get<std::uint64_t>();
    d.batches.emplace_back(time, static_cast<std::size_t>(count));
  }
  const auto keys = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < keys; ++i) {
    d.batch_keys.push_back(r.Get<std::uint64_t>());
  }
  return d;
}

}  // namespace

std::vector<std::byte> SerializeCheckpoint(const CheckpointState& s) {
  std::vector<std::byte> out;
  ByteWriter w(out);
  w.Put<std::uint32_t>(kMagic);
  w.Put<std::uint32_t>(kVersion);
  w.Put<std::uint64_t>(s.sequence);
  w.Put<std::uint64_t>(s.log_offset);
  w.Put<std::int64_t>(s.time);
  w.Put<std::int64_t>(s.resume_t0);
  w.Put<std::uint64_t>(s.next_round);
  w.Put<std::uint8_t>(s.quiescent ? 1 : 0);
  w.Put<std::uint64_t>(s.next_message_id);
  w.Put<std::uint64_t>(s.next_blob_id);
  w.Put<std::uint64_t>(s.rounds_started);
  w.Put<std::uint64_t>(s.last_recorded_round);
  w.Put<std::uint64_t>(s.messages_emitted);
  w.Put<std::uint64_t>(s.storage_bytes_written);
  w.Put<std::uint64_t>(s.storage_bytes_read);
  w.Put<std::uint64_t>(s.pending_delete_blobs.size());
  for (const BlobId id : s.pending_delete_blobs) {
    w.Put<std::uint64_t>(id.value());
  }
  PutAggregation(w, s.aggregation);
  w.Put<std::uint64_t>(s.rounds.size());
  for (const auto& r : s.rounds) {
    w.Put<std::uint64_t>(r.round);
    w.Put<std::int64_t>(r.time);
    w.Put<double>(r.test_accuracy);
    w.Put<double>(r.test_logloss);
    w.Put<double>(r.train_accuracy);
    w.Put<double>(r.train_logloss);
    w.Put<std::uint64_t>(r.clients);
    w.Put<std::uint64_t>(r.samples);
  }
  PutDispatch(w, s.dispatch);
  w.Put<std::uint64_t>(s.scalars.size());
  for (const auto& row : s.scalars) {
    w.PutString(row.series);
    w.Put<std::int64_t>(row.time);
    w.Put<double>(row.value);
  }
  w.Put<std::uint64_t>(s.perf_samples.size());
  for (const auto& p : s.perf_samples) {
    w.Put<std::uint64_t>(p.phone.value());
    w.Put<std::uint64_t>(p.task.value());
    w.Put<std::int64_t>(p.time);
    w.Put<std::int64_t>(p.current_ua);
    w.Put<double>(p.voltage_mv);
    w.Put<double>(p.cpu_percent);
    w.Put<std::int64_t>(p.memory_kb);
    w.Put<std::int64_t>(p.bandwidth_bytes);
    w.Put<std::uint8_t>(static_cast<std::uint8_t>(p.stage));
  }
  const std::uint32_t crc = Crc32(out);
  w.Put<std::uint32_t>(crc);
  return out;
}

Result<CheckpointState> DeserializeCheckpoint(
    std::span<const std::byte> bytes) {
  if (bytes.size() < 3 * sizeof(std::uint32_t)) {
    return ParseError("checkpoint image too small: " +
                      std::to_string(bytes.size()) + " bytes");
  }
  const auto body = bytes.first(bytes.size() - sizeof(std::uint32_t));
  ByteReader crc_reader(bytes.subspan(body.size()));
  if (Crc32(body) != crc_reader.Get<std::uint32_t>()) {
    return ParseError("checkpoint CRC mismatch");
  }
  ByteReader r(body);
  if (r.Get<std::uint32_t>() != kMagic) {
    return ParseError("checkpoint magic mismatch");
  }
  const auto version = r.Get<std::uint32_t>();
  if (version != kVersion) {
    return ParseError("unsupported checkpoint version " +
                      std::to_string(version));
  }
  CheckpointState s;
  s.sequence = r.Get<std::uint64_t>();
  s.log_offset = r.Get<std::uint64_t>();
  s.time = r.Get<std::int64_t>();
  s.resume_t0 = r.Get<std::int64_t>();
  s.next_round = r.Get<std::uint64_t>();
  s.quiescent = r.Get<std::uint8_t>() != 0;
  s.next_message_id = r.Get<std::uint64_t>();
  s.next_blob_id = r.Get<std::uint64_t>();
  s.rounds_started = r.Get<std::uint64_t>();
  s.last_recorded_round = r.Get<std::uint64_t>();
  s.messages_emitted = r.Get<std::uint64_t>();
  s.storage_bytes_written = r.Get<std::uint64_t>();
  s.storage_bytes_read = r.Get<std::uint64_t>();
  const auto pending = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < pending; ++i) {
    s.pending_delete_blobs.push_back(BlobId(r.Get<std::uint64_t>()));
  }
  s.aggregation = GetAggregation(r);
  const auto rounds = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < rounds; ++i) {
    cloud::RoundMetrics row;
    row.round = r.Get<std::uint64_t>();
    row.time = r.Get<std::int64_t>();
    row.test_accuracy = r.Get<double>();
    row.test_logloss = r.Get<double>();
    row.train_accuracy = r.Get<double>();
    row.train_logloss = r.Get<double>();
    row.clients = r.Get<std::uint64_t>();
    row.samples = r.Get<std::uint64_t>();
    s.rounds.push_back(row);
  }
  s.dispatch = GetDispatch(r);
  const auto scalars = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < scalars; ++i) {
    cloud::ScalarRow row;
    row.series = r.GetString();
    row.time = r.Get<std::int64_t>();
    row.value = r.Get<double>();
    s.scalars.push_back(std::move(row));
  }
  const auto perf = r.Get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok() && i < perf; ++i) {
    device::PerfSample p;
    p.phone = PhoneId(r.Get<std::uint64_t>());
    p.task = TaskId(r.Get<std::uint64_t>());
    p.time = r.Get<std::int64_t>();
    p.current_ua = r.Get<std::int64_t>();
    p.voltage_mv = r.Get<double>();
    p.cpu_percent = r.Get<double>();
    p.memory_kb = r.Get<std::int64_t>();
    p.bandwidth_bytes = r.Get<std::int64_t>();
    p.stage = static_cast<device::ApkStage>(r.Get<std::uint8_t>());
    s.perf_samples.push_back(p);
  }
  if (!r.ok() || r.remaining() != 0) {
    return ParseError("checkpoint payload malformed");
  }
  return s;
}

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.bin";
}
std::string CheckpointTmpPath(const std::string& dir) {
  return dir + "/checkpoint.tmp";
}
std::string CheckpointPrevPath(const std::string& dir) {
  return dir + "/checkpoint.prev";
}
std::string BlobLogPath(const std::string& dir) { return dir + "/blob.log"; }

Status WriteCheckpoint(FileIo& io, const std::string& dir,
                       const CheckpointState& state) {
  const std::vector<std::byte> image = SerializeCheckpoint(state);
  const std::string tmp = CheckpointTmpPath(dir);
  const std::string bin = CheckpointPath(dir);
  if (Status written = io.WriteFile(tmp, image); !written.ok()) {
    return written;
  }
  // Demote the live checkpoint before publishing: if the crash lands
  // between the renames, recovery finds the complete tmp (tried second)
  // or the demoted prev (tried third) — never zero valid images.
  if (io.Exists(bin)) {
    if (Status demoted = io.Rename(bin, CheckpointPrevPath(dir));
        !demoted.ok()) {
      return demoted;
    }
  }
  return io.Rename(tmp, bin);
}

std::vector<CheckpointImage> LoadCheckpoints(FileIo& io,
                                             const std::string& dir) {
  std::vector<CheckpointImage> images;
  for (const std::string& path :
       {CheckpointPath(dir), CheckpointTmpPath(dir),
        CheckpointPrevPath(dir)}) {
    if (!io.Exists(path)) continue;
    auto image = io.ReadFile(path);
    if (!image.ok()) continue;
    auto state = DeserializeCheckpoint(*image);
    if (state.ok()) images.push_back({path, std::move(*state)});
  }
  return images;
}

Result<CheckpointState> LoadLatestCheckpoint(FileIo& io,
                                             const std::string& dir) {
  std::vector<CheckpointImage> images = LoadCheckpoints(io, dir);
  if (images.empty()) return NotFound("no valid checkpoint in '" + dir + "'");
  return std::move(images.front().state);
}

}  // namespace simdc::persist
