// Durable, crash-recoverable cloud store.
//
// DurableStore is the orchestration layer of the durability plane: it
// listens to BlobStore mutations through the cloud::BlobJournal seam,
// buffers them into the append-only blob log (blob_log.h), group-commits
// at the engine's round boundaries, and publishes atomic checkpoints of
// aggregator state (checkpoint.h). Recovery is the composition: load the
// latest valid checkpoint, replay the log up to the offset it pins into a
// fresh BlobStore, truncate the file there — and the engine
// re-executes the partial round deterministically, landing bit-identical
// to an uninterrupted run (DurableRecoveryTest proves it under injected
// crashes, torn writes, short reads, and fsync failures). When the log's
// valid prefix is shorter than the newest checkpoint's pinned offset,
// recovery falls back to the newest older checkpoint whose pin it still
// covers; with none, it refuses the log as kDataLoss instead of resuming.
//
// Modes ([execution] durability):
//   off             — today's in-memory store, nothing written, bit-
//                     identical to the pre-durability engine.
//   log+checkpoint  — blob mutations are logged + group-committed, and
//                     round-boundary checkpoints pin the log; a crashed
//                     experiment resumes bit-identically.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "cloud/storage.h"
#include "common/error.h"
#include "persist/blob_log.h"
#include "persist/checkpoint.h"
#include "persist/file_io.h"

namespace simdc::persist {

enum class DurabilityMode : std::uint8_t { kOff, kLogCheckpoint };

struct DurabilityConfig {
  DurabilityMode mode = DurabilityMode::kOff;
  /// Directory holding blob.log and checkpoint.{bin,tmp,prev}.
  std::string dir;
  /// File I/O implementation; null = RealFileIo::Instance(). Tests inject
  /// a FaultInjector here to crash the engine at chosen I/O points.
  FileIo* io = nullptr;
};

class DurableStore final : public cloud::BlobJournal {
 public:
  explicit DurableStore(DurabilityConfig config);

  // BlobJournal — called under the BlobStore mutex; pure in-memory
  // buffering (the log's group-commit discipline), no I/O.
  void OnPut(BlobId id, std::span<const std::byte> bytes) override;
  void OnDelete(BlobId id) override;

  /// Fresh-run initialization: creates the directory and removes any
  /// previous run's log and checkpoints. Call BEFORE attaching the
  /// journal; never called on the resume path (which must read them).
  Status BeginFresh();

  /// Resume initialization: reads the checkpoints (bin, then tmp, then
  /// prev) and then the log, each once, and validates the log in memory.
  /// Returns NotFound when no checkpoint image validates, before the log
  /// is read, replayed or cut (the caller runs fresh instead). Resumes
  /// from the first valid checkpoint whose pinned offset lies inside the
  /// valid prefix, and returns it: replays the log up to that offset into
  /// `store` (RestoreBlob / Delete) — records past it belong to the
  /// partial round the engine re-executes — and truncates the file there.
  /// Newer checkpoints whose pin the log no longer covers are removed
  /// before returning OK. Returns DataLoss, cutting nothing, when no
  /// checkpoint's pin lies inside the valid prefix (the error names the
  /// newest one's pin) or the chosen pin falls inside a record; `store`
  /// must then be discarded. Restores the store's id cursor and traffic
  /// counters. Call BEFORE attaching the journal so replayed mutations are
  /// not re-logged.
  Result<CheckpointState> BeginResume(cloud::BlobStore& store);

  /// Group commit: flushes buffered mutations as one Append + Sync.
  Status CommitLog();

  /// Stamps `state` with the next checkpoint sequence and the current
  /// durable log offset, then publishes it atomically. Callers commit the
  /// log first so the offset covers everything the state references.
  Status WriteCheckpoint(CheckpointState state);

  const DurabilityConfig& config() const { return config_; }
  std::uint64_t log_commits() const;
  std::uint64_t checkpoints_written() const;

 private:
  DurabilityConfig config_;
  FileIo* io_;
  mutable std::mutex mutex_;
  BlobLogWriter writer_;
  std::uint64_t sequence_ = 0;
};

}  // namespace simdc::persist
