#include "persist/durable_store.h"

#include <utility>
#include <vector>

namespace simdc::persist {

const char* ToString(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff: return "off";
    case DurabilityMode::kLog: return "log";
    case DurabilityMode::kLogCheckpoint: return "log+checkpoint";
  }
  return "unknown";
}

DurableStore::DurableStore(DurabilityConfig config)
    : config_(std::move(config)),
      io_(config_.io != nullptr ? config_.io : &RealFileIo::Instance()),
      writer_(*io_, BlobLogPath(config_.dir)) {
  SIMDC_CHECK(config_.mode != DurabilityMode::kOff,
              "DurableStore: construct only with durability enabled");
  SIMDC_CHECK(!config_.dir.empty(), "DurableStore: durability dir required");
}

void DurableStore::OnPut(BlobId id, std::span<const std::byte> bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  writer_.AppendPut(id, bytes);
}

void DurableStore::OnDelete(BlobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  writer_.AppendDelete(id);
}

Status DurableStore::BeginFresh() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status made = io_->CreateDirs(config_.dir); !made.ok()) return made;
  for (const std::string& stale :
       {BlobLogPath(config_.dir), CheckpointPath(config_.dir),
        CheckpointTmpPath(config_.dir), CheckpointPrevPath(config_.dir)}) {
    if (Status removed = io_->Remove(stale); !removed.ok()) return removed;
  }
  writer_.ResetDurableSize(0);
  sequence_ = 0;
  return Status::Ok();
}

Result<RecoveredState> DurableStore::BeginResume(cloud::BlobStore& store) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status made = io_->CreateDirs(config_.dir); !made.ok()) {
    return made.error();
  }
  const std::string log = BlobLogPath(config_.dir);
  RecoveredState out;

  if (config_.mode == DurabilityMode::kLogCheckpoint) {
    auto checkpoint = LoadLatestCheckpoint(*io_, config_.dir);
    if (checkpoint.ok()) {
      out.checkpoint = std::move(*checkpoint);
      out.has_checkpoint = true;
      // Log records past the checkpoint's offset belong to the partial
      // round the engine will re-execute; replaying them would duplicate
      // its blob ids. Drop them before replay.
      if (io_->Exists(log)) {
        auto size = io_->FileSize(log);
        if (size.ok() && *size > out.checkpoint.log_offset) {
          if (Status cut = io_->TruncateTo(log, out.checkpoint.log_offset);
              !cut.ok()) {
            return cut.error();
          }
        }
      }
    }
  }

  std::uint64_t put_bytes = 0;
  auto replay =
      ReplayBlobLog(*io_, log, [&](const BlobLogRecord& record) {
        if (record.kind == BlobRecordKind::kPut) {
          store.RestoreBlob(record.id, std::vector<std::byte>(
                                           record.bytes.begin(),
                                           record.bytes.end()));
          put_bytes += record.bytes.size();
        } else {
          (void)store.Delete(record.id);
        }
      });
  if (!replay.ok()) return replay.error();
  out.log_bytes = replay->valid_bytes;
  out.log_records = replay->records;
  out.truncated_tail = replay->truncated_tail;
  // The checkpoint describes the store as of log_offset; a shorter valid
  // prefix lost records it references. Refuse before the cut below, so
  // nothing under the pin is deleted from disk.
  if (out.has_checkpoint && replay->valid_bytes < out.checkpoint.log_offset) {
    return DataLoss("blob log validates " +
                    std::to_string(replay->valid_bytes) +
                    " bytes, but its checkpoint pins " +
                    std::to_string(out.checkpoint.log_offset));
  }
  // Drop the torn tail on disk so future appends extend a valid prefix
  // instead of burying garbage mid-file.
  if (replay->truncated_tail) {
    if (Status cut = io_->TruncateTo(log, replay->valid_bytes); !cut.ok()) {
      return cut.error();
    }
  }
  writer_.ResetDurableSize(replay->valid_bytes);

  if (out.has_checkpoint) {
    store.SetNextId(out.checkpoint.next_blob_id);
    store.RestoreTrafficCounters(
        static_cast<std::size_t>(out.checkpoint.storage_bytes_written),
        static_cast<std::size_t>(out.checkpoint.storage_bytes_read));
    sequence_ = out.checkpoint.sequence;
  } else {
    // Log-only reload: written traffic is exactly the replayed put bytes
    // (reads are not logged); the id cursor was advanced by RestoreBlob.
    store.RestoreTrafficCounters(static_cast<std::size_t>(put_bytes), 0);
  }
  return out;
}

Status DurableStore::CommitLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  return writer_.Commit();
}

Status DurableStore::WriteCheckpoint(CheckpointState state) {
  std::lock_guard<std::mutex> lock(mutex_);
  SIMDC_CHECK(config_.mode == DurabilityMode::kLogCheckpoint,
              "DurableStore::WriteCheckpoint: mode is "
                  << ToString(config_.mode));
  if (writer_.HasPending()) {
    // A failed CommitLog left records buffered; a checkpoint now would pin
    // an offset that does not cover the state it describes. Degrade (the
    // previous checkpoint stays valid) instead of throwing mid-run.
    return FailedPrecondition(
        "DurableStore::WriteCheckpoint: uncommitted log records pending");
  }
  state.sequence = ++sequence_;
  state.log_offset = writer_.durable_size();
  return persist::WriteCheckpoint(*io_, config_.dir, state);
}

std::uint64_t DurableStore::log_commits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return writer_.commits();
}

std::uint64_t DurableStore::checkpoints_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sequence_;
}

}  // namespace simdc::persist
