#include "persist/blob_log.h"

#include <utility>

#include "persist/wire.h"

namespace simdc::persist {

namespace {

/// Opens a frame on `out`: reserves the [len][crc] header and returns its
/// offset. The record payload is then written *directly* into `out` (one
/// copy of the blob bytes instead of staging them in a scratch vector) and
/// CloseFrame patches the header over the bytes in place.
std::size_t OpenFrame(std::vector<std::byte>& out) {
  const std::size_t header_at = out.size();
  ByteWriter w(out);
  w.Put<std::uint32_t>(0);  // payload length, patched by CloseFrame
  w.Put<std::uint32_t>(0);  // payload crc, patched by CloseFrame
  return header_at;
}

void CloseFrame(std::vector<std::byte>& out, std::size_t header_at) {
  const std::size_t payload_at = header_at + 2 * sizeof(std::uint32_t);
  const std::span<const std::byte> payload(out.data() + payload_at,
                                           out.size() - payload_at);
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = Crc32(payload);
  std::memcpy(out.data() + header_at, &length, sizeof(length));
  std::memcpy(out.data() + header_at + sizeof(length), &crc, sizeof(crc));
}

}  // namespace

void BlobLogWriter::AppendPut(BlobId id, std::span<const std::byte> bytes) {
  const std::size_t frame = OpenFrame(pending_);
  ByteWriter w(pending_);
  w.Put<std::uint8_t>(static_cast<std::uint8_t>(BlobRecordKind::kPut));
  w.Put<std::uint64_t>(id.value());
  w.Put<std::uint64_t>(bytes.size());
  w.PutBytes(bytes);
  CloseFrame(pending_, frame);
}

void BlobLogWriter::AppendDelete(BlobId id) {
  const std::size_t frame = OpenFrame(pending_);
  ByteWriter w(pending_);
  w.Put<std::uint8_t>(static_cast<std::uint8_t>(BlobRecordKind::kDelete));
  w.Put<std::uint64_t>(id.value());
  CloseFrame(pending_, frame);
}

Status BlobLogWriter::Commit() {
  if (pending_.empty()) return Status::Ok();
  if (Status appended = io_.Append(path_, pending_); !appended.ok()) {
    // A failed append may still have written part of the batch (a short
    // write, then ENOSPC). Cut the file back to the durable size so the
    // retry at the next commit point starts on a record boundary; if the
    // cut fails too, recovery refuses the mismatched prefix.
    (void)io_.TruncateTo(path_, durable_size_);
    return appended;
  }
  // The bytes are in the file whether or not the sync below succeeds, and
  // durable_size_ must track file contents (checkpoints pin it as a byte
  // offset). A failed fsync therefore still consumes the pending buffer —
  // re-appending it would duplicate records on replay — and only the
  // status reports the degraded durability.
  durable_size_ += pending_.size();
  ++commits_;
  pending_.clear();
  return io_.Sync(path_);
}

BlobLogReplayResult ReplayBlobLog(
    std::span<const std::byte> bytes,
    const std::function<void(const BlobLogRecord&)>& apply) {
  BlobLogReplayResult result;
  std::uint64_t pos = 0;
  constexpr std::uint64_t kHeader = 2 * sizeof(std::uint32_t);
  while (pos + kHeader <= bytes.size()) {
    ByteReader header(bytes.subspan(pos, kHeader));
    const auto length = header.Get<std::uint32_t>();
    const auto crc = header.Get<std::uint32_t>();
    if (pos + kHeader + length > bytes.size()) break;  // torn final record
    const auto payload = bytes.subspan(pos + kHeader, length);
    if (Crc32(payload) != crc) break;  // corrupt record

    ByteReader body(payload);
    const auto kind = body.Get<std::uint8_t>();
    BlobLogRecord record;
    record.id = BlobId(body.Get<std::uint64_t>());
    if (kind == static_cast<std::uint8_t>(BlobRecordKind::kPut)) {
      record.kind = BlobRecordKind::kPut;
      const auto n = body.Get<std::uint64_t>();
      record.bytes = body.GetBytes(static_cast<std::size_t>(n));
      if (!body.ok() || body.remaining() != 0) break;  // malformed payload
    } else if (kind == static_cast<std::uint8_t>(BlobRecordKind::kDelete)) {
      record.kind = BlobRecordKind::kDelete;
      if (!body.ok() || body.remaining() != 0) break;
    } else {
      break;  // unknown record kind — treat as corruption
    }

    apply(record);
    pos += kHeader + length;
    ++result.records;
  }

  result.valid_bytes = pos;
  result.truncated_tail = pos < bytes.size();
  return result;
}

}  // namespace simdc::persist
