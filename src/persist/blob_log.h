// Append-only blob log: the redo stream of the durable cloud store.
//
// Every BlobStore mutation (Put / pooled commit / Delete) becomes one framed
// record appended to a single log file. Records are buffered in memory and
// group-committed — one Append + one Sync per commit point (a dispatch
// tick or round boundary) — so the simulation hot path stays O(1) syscalls
// per tick regardless of how many uploads the tick carried.
//
// Record framing:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//     payload := [u8 kind = kPut]    [u64 blob_id][u64 n][n bytes]
//              | [u8 kind = kDelete] [u64 blob_id]
//
// The CRC is the recovery contract: replay walks the log's bytes record by
// record, verifies length + CRC, and *truncates at the first torn or
// corrupt record* — whatever prefix validates is, by construction, exactly
// the state at some past group-commit boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "persist/file_io.h"

namespace simdc::persist {

enum class BlobRecordKind : std::uint8_t {
  kPut = 1,
  kDelete = 2,
};

/// One decoded log record handed to the replay callback. `bytes` aliases
/// the replay buffer — copy if you keep it.
struct BlobLogRecord {
  BlobRecordKind kind = BlobRecordKind::kPut;
  BlobId id;
  std::span<const std::byte> bytes;  // kPut only
};

/// Buffering writer over one log file. Mutations accumulate in memory
/// until Commit(), which appends + syncs them as a single batch. Nothing
/// is durable (and recovery will not see it) until Commit returns Ok.
class BlobLogWriter {
 public:
  BlobLogWriter(FileIo& io, std::string path)
      : io_(io), path_(std::move(path)) {}

  void AppendPut(BlobId id, std::span<const std::byte> bytes);
  void AppendDelete(BlobId id);

  /// Group commit: one Append + one Sync for everything buffered since the
  /// last commit. When the append fails, the file is cut back to
  /// durable_size() (dropping any partial write) and the buffered records
  /// are kept for a retry. Once the append succeeds the buffer is consumed
  /// and durable_size() advances even if the sync then fails (the bytes are
  /// in the file — re-appending them would duplicate records on replay —
  /// so only the returned status reports the degraded durability barrier).
  Status Commit();

  bool HasPending() const { return !pending_.empty(); }
  /// Bytes of log known durable (offset of the next commit's first byte).
  std::uint64_t durable_size() const { return durable_size_; }
  /// Commits issued (each = one Append + one Sync syscall pair).
  std::uint64_t commits() const { return commits_; }

  /// Aligns the writer with an existing log recovered to `size` bytes
  /// (resume path: the file already holds a validated prefix).
  void ResetDurableSize(std::uint64_t size) { durable_size_ = size; }

 private:
  FileIo& io_;
  std::string path_;
  std::vector<std::byte> pending_;
  std::uint64_t durable_size_ = 0;
  std::uint64_t commits_ = 0;
};

/// Outcome of a replay pass: how much of the bytes validated, and whether a
/// torn/corrupt suffix was dropped.
struct BlobLogReplayResult {
  std::uint64_t valid_bytes = 0;
  std::uint64_t records = 0;
  bool truncated_tail = false;
};

/// Replays log bytes already read into memory from the start, invoking
/// `apply` for each record whose frame validates (length fits, CRC
/// matches), stopping at the first invalid record. Does no I/O — pair with
/// FileIo::TruncateTo(valid_bytes) to drop a torn tail from the file.
BlobLogReplayResult ReplayBlobLog(
    std::span<const std::byte> bytes,
    const std::function<void(const BlobLogRecord&)>& apply);

}  // namespace simdc::persist
