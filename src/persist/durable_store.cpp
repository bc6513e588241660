#include "persist/durable_store.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace simdc::persist {

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

Result<CheckpointState> DurableStore::BeginResume(cloud::BlobStore& store) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Status made = io_->CreateDirs(config_.dir); !made.ok()) {
    return made.error();
  }
  std::vector<CheckpointImage> images = LoadCheckpoints(*io_, config_.dir);
  // Nothing to resume from: the log is left as the crash left it.
  if (images.empty()) {
    return NotFound("no checkpoint in '" + config_.dir +
                    "'; run fresh instead");
  }
  // One read of the log: its bytes are validated and replayed in memory.
  const std::string log = BlobLogPath(config_.dir);
  std::vector<std::byte> bytes;
  if (io_->Exists(log)) {
    auto file = io_->ReadFile(log);
    if (!file.ok()) return file.error();
    bytes = std::move(*file);
  }
  const std::uint64_t valid =
      ReplayBlobLog(bytes, [](const BlobLogRecord&) {}).valid_bytes;

  // Each image describes the store as of the log offset it pins. Resume
  // from the first (bin, tmp, prev) whose pin the log still validates: an
  // older image re-executes more rounds, a newer one references lost
  // records.
  const auto chosen = std::find_if(
      images.begin(), images.end(), [&](const CheckpointImage& image) {
        return image.state.log_offset <= valid;
      });
  // Refused before any cut, so nothing under a pin is deleted.
  if (chosen == images.end()) {
    return DataLoss("blob log validates " + std::to_string(valid) +
                    " bytes, but its checkpoint pins " +
                    std::to_string(images.front().state.log_offset));
  }
  CheckpointState checkpoint = std::move(chosen->state);
  // Log records past the checkpoint's offset belong to the partial round
  // the engine will re-execute; replaying them would duplicate its blob
  // ids.
  const std::uint64_t keep = checkpoint.log_offset;

  const BlobLogReplayResult replay = ReplayBlobLog(
      std::span<const std::byte>(bytes).first(keep),
      [&](const BlobLogRecord& record) {
        if (record.kind == BlobRecordKind::kPut) {
          store.RestoreBlob(record.id, std::vector<std::byte>(
                                           record.bytes.begin(),
                                           record.bytes.end()));
        } else {
          (void)store.Delete(record.id);
        }
      });
  // A pin inside a record (a CRC-valid image no writer produced) names a
  // store the log cannot rebuild; refused before the cut below.
  if (replay.valid_bytes != keep) {
    return DataLoss("checkpoint pins blob log offset " + std::to_string(keep) +
                    ", inside the record that starts at " +
                    std::to_string(replay.valid_bytes));
  }
  // Drop everything past the kept prefix on disk — the torn tail, the
  // partial round, any bytes a short read missed — so future appends
  // extend it instead of burying garbage mid-file.
  auto size = io_->FileSize(log);
  if (size.ok() && *size > keep) {
    if (Status cut = io_->TruncateTo(log, keep); !cut.ok()) {
      return cut.error();
    }
  }
  writer_.ResetDurableSize(keep);

  store.SetNextId(checkpoint.next_blob_id);
  store.RestoreTrafficCounters(
      static_cast<std::size_t>(checkpoint.storage_bytes_written),
      static_cast<std::size_t>(checkpoint.storage_bytes_read));
  sequence_ = checkpoint.sequence;
  // The checkpoints newer than the one resumed from pin records the cut
  // above removed; a later crash must not load one ahead of it.
  for (auto it = images.begin(); it != chosen; ++it) {
    if (Status removed = io_->Remove(it->path); !removed.ok()) {
      return removed.error();
    }
  }
  return checkpoint;
}

Status DurableStore::CommitLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  return writer_.Commit();
}

Status DurableStore::WriteCheckpoint(CheckpointState state) {
  std::lock_guard<std::mutex> lock(mutex_);
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
