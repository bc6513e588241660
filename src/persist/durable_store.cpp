#include "persist/durable_store.h"

#include <algorithm>
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

  // Checkpoints newer than the one resumed from, whose pin the log no
  // longer validates.
  std::vector<std::string> unpinned;
  if (config_.mode == DurabilityMode::kLogCheckpoint) {
    std::vector<CheckpointImage> images = LoadCheckpoints(*io_, config_.dir);
    if (!images.empty()) {
      // Each image describes the store as of the log offset it pins.
      // Resume from the first (bin, tmp, prev) whose pin the log still
      // validates: an older image re-executes more rounds, a newer one
      // references lost records.
      auto validated = ReplayBlobLog(*io_, log, [](const BlobLogRecord&) {});
      if (!validated.ok()) return validated.error();
      const auto chosen = std::find_if(
          images.begin(), images.end(), [&](const CheckpointImage& image) {
            return image.state.log_offset <= validated->valid_bytes;
          });
      // Refused before any cut, so nothing under a pin is deleted.
      if (chosen == images.end()) {
        return DataLoss("blob log validates " +
                        std::to_string(validated->valid_bytes) +
                        " bytes, but its checkpoint pins " +
                        std::to_string(images.front().state.log_offset));
      }
      for (auto it = images.begin(); it != chosen; ++it) {
        unpinned.push_back(std::move(it->path));
      }
      out.checkpoint = std::move(chosen->state);
      out.has_checkpoint = true;
      // Log records past the checkpoint's offset belong to the partial
      // round the engine will re-execute; replaying them would duplicate
      // its blob ids. Drop them before replay.
      auto size = io_->FileSize(log);
      if (size.ok() && *size > out.checkpoint.log_offset) {
        if (Status cut = io_->TruncateTo(log, out.checkpoint.log_offset);
            !cut.ok()) {
          return cut.error();
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
  // The checkpoint describes the store as of log_offset, which lay inside
  // the prefix validated above; a log that now reads back shorter lost
  // records it references. Refuse before the cut below, so nothing under
  // the pin is deleted from disk.
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
  // Those newer checkpoints pin records the cut above removed; a later
  // crash must not load one ahead of the checkpoint resumed from.
  for (const std::string& path : unpinned) {
    if (Status removed = io_->Remove(path); !removed.ok()) {
      return removed.error();
    }
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
