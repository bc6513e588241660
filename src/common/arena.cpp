#include "common/arena.h"

namespace simdc {
namespace {

constexpr std::size_t kAlignment = 8;

std::size_t AlignUp(std::size_t n) {
  return (n + (kAlignment - 1)) & ~(kAlignment - 1);
}

}  // namespace

ByteArena::Allocation ByteArena::Allocate(std::size_t size) {
  if (size > block_bytes_) {
    // Oversized request: dedicated exact-size block, immediately retired
    // (it can never host a second allocation).
    auto block = std::make_shared<ArenaBlock>(size);
    ++blocks_created_;
    retired_.push_back(block);
    return {block, block->bytes.get(), size};
  }
  const std::size_t aligned = AlignUp(size);
  if (current_ == nullptr || offset_ + aligned > current_->capacity) {
    if (current_ != nullptr) retired_.push_back(std::move(current_));
    if (!free_.empty()) {
      current_ = std::move(free_.back());
      free_.pop_back();
    } else {
      current_ = std::make_shared<ArenaBlock>(block_bytes_);
      ++blocks_created_;
    }
    ++slabs_handed_out_;
    offset_ = 0;
  }
  std::byte* data = current_->bytes.get() + offset_;
  offset_ += aligned;
  return {current_, data, size};
}

std::size_t ByteArena::Reclaim() {
  if (current_ != nullptr) {
    retired_.push_back(std::move(current_));
    offset_ = 0;
  }
  // A period that handed out nothing (blocks pinned past the previous
  // Reclaim are being released late) keeps the last working set.
  if (slabs_handed_out_ > 0) working_set_ = slabs_handed_out_;
  slabs_handed_out_ = 0;
  std::vector<std::shared_ptr<ArenaBlock>> free;
  free.reserve(working_set_);
  std::vector<std::shared_ptr<ArenaBlock>> still_live;
  still_live.reserve(retired_.size());
  for (auto& block : retired_) {
    // use_count > 1: an Allocation (and so a SharedBlob or a view over
    // it) can still read these bytes.
    if (block.use_count() > 1) {
      still_live.push_back(std::move(block));
    } else if (block->capacity == block_bytes_ &&
               free.size() < working_set_) {
      free.push_back(std::move(block));
    }
    // Otherwise the block is freed here: an oversized one-off, or a slab
    // beyond the working set.
  }
  const std::size_t recycled = free.size();
  // Slabs the finished round left on the free list fill what is left of
  // the working set; the rest are freed.
  for (auto& block : free_) {
    if (free.size() == working_set_) break;
    free.push_back(std::move(block));
  }
  free_ = std::move(free);
  retired_ = std::move(still_live);
  blocks_recycled_ += recycled;
  return recycled;
}

}  // namespace simdc
