#include "cloud/storage.h"

#include <cstring>

namespace simdc::cloud {

BlobId BlobStore::Put(std::vector<std::byte> bytes) {
  const std::size_t size = bytes.size();
  auto buffer =
      std::make_shared<const std::vector<std::byte>>(std::move(bytes));
  const std::byte* data = buffer->data();
  std::lock_guard<std::mutex> lock(mutex_);
  const BlobId id(next_id_++);
  total_bytes_ += size;
  bytes_written_ += size;
  blobs_.emplace(id, SharedBlob(std::move(buffer), data, size));
  if (journal_ != nullptr) journal_->OnPut(id, {data, size});
  return id;
}

PooledReservation BlobStore::ReservePooled(std::size_t count,
                                           std::size_t bytes_each) {
  PooledReservation reservation;
  reservation.slots_.reserve(count);
  std::lock_guard<std::mutex> lock(mutex_);
  reservation.first_id_ = next_id_;
  next_id_ += count;
  for (std::size_t i = 0; i < count; ++i) {
    reservation.slots_.push_back(arena_.Allocate(bytes_each));
  }
  return reservation;
}

void BlobStore::CommitPooled(PooledReservation reservation) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < reservation.slots_.size(); ++i) {
    ByteArena::Allocation& slot = reservation.slots_[i];
    const BlobId id = reservation.id(i);
    total_bytes_ += slot.size;
    bytes_written_ += slot.size;
    blobs_.emplace(id, SharedBlob(std::move(slot.block), slot.data, slot.size));
    if (journal_ != nullptr) journal_->OnPut(id, {slot.data, slot.size});
  }
}

BlobId BlobStore::PutPooled(std::span<const std::byte> bytes) {
  PooledReservation reservation = ReservePooled(1, bytes.size());
  const BlobId id = reservation.id(0);
  if (!bytes.empty()) {
    std::memcpy(reservation.slot(0).data(), bytes.data(), bytes.size());
  }
  CommitPooled(std::move(reservation));
  return id;
}

Result<std::vector<std::byte>> BlobStore::Get(BlobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (read_fault_hook_) {
    if (Status faulted = read_fault_hook_(id); !faulted.ok()) return faulted.error();
  }
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob not found: " + id.ToString());
  }
  bytes_read_ += it->second.size();
  return std::vector<std::byte>(it->second.begin(), it->second.end());
}

Result<SharedBlob> BlobStore::GetShared(BlobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (read_fault_hook_) {
    if (Status faulted = read_fault_hook_(id); !faulted.ok()) return faulted.error();
  }
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob not found: " + id.ToString());
  }
  bytes_read_ += it->second.size();
  return it->second;
}

Status BlobStore::Delete(BlobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob not found: " + id.ToString());
  }
  total_bytes_ -= it->second.size();
  blobs_.erase(it);
  if (journal_ != nullptr) journal_->OnDelete(id);
  return Status::Ok();
}

void BlobStore::set_journal(BlobJournal* journal) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_ = journal;
}

void BlobStore::set_read_fault_hook(ReadFaultHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  read_fault_hook_ = std::move(hook);
}

void BlobStore::RestoreBlob(BlobId id, std::vector<std::byte> bytes) {
  const std::size_t size = bytes.size();
  auto buffer =
      std::make_shared<const std::vector<std::byte>>(std::move(bytes));
  const std::byte* data = buffer->data();
  std::lock_guard<std::mutex> lock(mutex_);
  // Replacing is legal during replay only in the degenerate sense that the
  // log never repeats an id; operator[] keeps the code branch-free.
  total_bytes_ += size;
  blobs_[id] = SharedBlob(std::move(buffer), data, size);
  if (id.value() >= next_id_) next_id_ = id.value() + 1;
}

void BlobStore::SetNextId(std::uint64_t next_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  next_id_ = next_id;
}

std::uint64_t BlobStore::next_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_;
}

void BlobStore::RestoreTrafficCounters(std::size_t written, std::size_t read) {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_written_ = written;
  bytes_read_ = read;
}

bool BlobStore::Contains(BlobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.contains(id);
}

std::size_t BlobStore::ReclaimArena() {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.Reclaim();
}

std::size_t BlobStore::blob_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.size();
}

std::size_t BlobStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

std::size_t BlobStore::bytes_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_written_;
}

std::size_t BlobStore::bytes_read() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_read_;
}

std::size_t BlobStore::arena_blocks_created() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.blocks_created();
}

std::size_t BlobStore::arena_blocks_recycled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.blocks_recycled();
}

}  // namespace simdc::cloud
