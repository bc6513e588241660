#include "persist/checkpoint.h"

#include <string>
#include <type_traits>
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

// The walk moves each field at its own C++ type's width, and v3 writes
// every size_t as u64.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

/// Writes walked fields in their v3 wire types: bool and enums as u8,
/// typed ids as their u64 value, strings as a u64 length plus bytes, and
/// every other scalar as itself. A list is a u64 count, then its elements.
class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : w_(out) {}

  template <typename... T>
  void operator()(const T&... fields) {
    (Field(fields), ...);
  }

  template <typename T, typename Each>
  void List(const std::vector<T>& list, Each&& each) {
    w_.Put<std::uint64_t>(list.size());
    for (const T& element : list) each(element);
  }
  template <typename T>
  void List(const std::vector<T>& list) {
    List(list, *this);
  }
  /// A list whose count the image already holds (the reader's `count`).
  template <typename T>
  void Uncounted(const std::vector<T>& list, std::size_t /*count*/) {
    for (const T& element : list) Field(element);
  }

 private:
  template <typename T>
  void Field(const T& field) {
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      w_.Put(static_cast<std::uint8_t>(field));
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.PutString(field);
    } else if constexpr (std::is_arithmetic_v<T>) {
      w_.Put(field);
    } else {
      w_.Put(field.value());
    }
  }

  ByteWriter w_;
};

/// Reads walked fields back from their v3 wire types (see Writer). Every
/// list loop stops at the first failed read, so a forged count allocates
/// at most one element past the bytes that are left.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : r_(bytes) {}

  /// Every read succeeded and no byte is left over.
  bool done() const { return r_.ok() && r_.remaining() == 0; }

  template <typename... T>
  void operator()(T&... fields) {
    (Field(fields), ...);
  }

  template <typename T, typename Each>
  void List(std::vector<T>& list, Each&& each) {
    const auto count = r_.Get<std::uint64_t>();
    for (std::uint64_t i = 0; r_.ok() && i < count; ++i) {
      each(list.emplace_back());
    }
  }
  template <typename T>
  void List(std::vector<T>& list) {
    List(list, *this);
  }
  template <typename T>
  void Uncounted(std::vector<T>& list, std::size_t count) {
    for (std::size_t i = 0; r_.ok() && i < count; ++i) {
      Field(list.emplace_back());
    }
  }

 private:
  template <typename T>
  void Field(T& field) {
    if constexpr (std::is_same_v<T, bool>) {
      field = r_.Get<std::uint8_t>() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      field = static_cast<T>(r_.Get<std::uint8_t>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = r_.GetString();
    } else if constexpr (std::is_arithmetic_v<T>) {
      field = r_.Get<T>();
    } else {
      field = T(r_.Get<std::uint64_t>());
    }
  }

  ByteReader r_;
};

/// The v3 layout after magic and version, stated once: SerializeCheckpoint
/// walks a const state with a Writer, DeserializeCheckpoint a fresh one
/// with a Reader.
template <typename Io, typename State>
void Walk(Io& io, State& s) {
  io(s.sequence, s.log_offset, s.time, s.resume_t0, s.next_round,
     s.quiescent, s.next_message_id, s.next_blob_id, s.rounds_started,
     s.last_recorded_round, s.messages_emitted, s.storage_bytes_written,
     s.storage_bytes_read);
  io.List(s.pending_delete_blobs);
  auto& a = s.aggregation;
  io.List(a.history, [&](auto& r) {
    io(r.round, r.time, r.clients, r.samples, r.model_blob);
  });
  io(a.messages_received, a.decode_failures, a.stale_rejections,
     a.store_errors, a.deadline_commits, a.round_extensions,
     a.aborted_rounds, a.model_dim);
  io.List(a.global_weights);
  io(a.global_bias);
  io.List(a.accumulator);
  // v3: the compensation planes share the accumulator's length, so no
  // separate size prefixes.
  io.Uncounted(a.accumulator_c1, a.accumulator.size());
  io.Uncounted(a.accumulator_c2, a.accumulator.size());
  io(a.bias_accumulator, a.bias_accumulator_c1, a.bias_accumulator_c2,
     a.accumulator_samples, a.accumulator_clients);
  io.List(s.rounds, [&](auto& r) {
    io(r.round, r.time, r.test_accuracy, r.test_logloss, r.train_accuracy,
       r.train_logloss, r.clients, r.samples);
  });
  auto& d = s.dispatch;
  io(d.received, d.sent, d.dropped, d.retries, d.retry_successes,
     d.deadline_drops, d.churn_losses, d.batches_truncated);
  io.List(d.batches, [&](auto& batch) { io(batch.first, batch.second); });
  io.List(d.batch_keys);
  io.List(s.scalars, [&](auto& row) { io(row.series, row.time, row.value); });
  io.List(s.perf_samples, [&](auto& p) {
    io(p.phone, p.task, p.time, p.current_ua, p.voltage_mv, p.cpu_percent,
       p.memory_kb, p.bandwidth_bytes, p.stage);
  });
}

}  // namespace

std::vector<std::byte> SerializeCheckpoint(const CheckpointState& s) {
  std::vector<std::byte> out;
  Writer w(out);
  w(kMagic, kVersion);
  Walk(w, s);
  w(Crc32(out));
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
  ByteReader header(body);
  if (header.Get<std::uint32_t>() != kMagic) {
    return ParseError("checkpoint magic mismatch");
  }
  const auto version = header.Get<std::uint32_t>();
  if (version != kVersion) {
    return ParseError("unsupported checkpoint version " +
                      std::to_string(version));
  }
  Reader r(body.subspan(2 * sizeof(std::uint32_t)));
  CheckpointState s;
  Walk(r, s);
  if (!r.done()) return ParseError("checkpoint payload malformed");
  // Recovery copies these lists into model_dim-sized planes (the cascade's
  // two compensation planes were read at the accumulator's length).
  const auto& a = s.aggregation;
  if (a.global_weights.size() != a.model_dim ||
      a.accumulator.size() != a.model_dim) {
    return ParseError("checkpoint lists disagree with model_dim " +
                      std::to_string(a.model_dim) + ": " +
                      std::to_string(a.global_weights.size()) +
                      " global weights, " +
                      std::to_string(a.accumulator.size()) +
                      " accumulator elements");
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
