// Refcounted bump arena for the hot-path memory plane.
//
// A million-device round creates O(msgs) payload blobs; heap-allocating
// each one individually is O(msgs) allocator traffic per round. ByteArena
// bump-allocates them out of large shared blocks instead: steady-state
// rounds touch the allocator O(1) times (blocks are recycled, not freed),
// while every allocation stays independently *liveness-safe* — an
// Allocation carries shared ownership of its block, so bytes outlive both
// the arena's Reclaim cycle and the arena itself for as long as any reader
// holds them. This is what lets cloud::BlobStore keep the SharedBlob
// Delete-while-held guarantee on top of pooled storage: blocks are
// refcounted, never freed per-blob.
//
// Not thread-safe; callers (BlobStore) serialize access externally.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace simdc {

/// One slab of arena memory. Immutable capacity; bytes are written once by
/// the allocator's caller before the allocation is published to readers.
struct ArenaBlock {
  explicit ArenaBlock(std::size_t capacity_bytes)
      : bytes(new std::byte[capacity_bytes]), capacity(capacity_bytes) {}

  std::unique_ptr<std::byte[]> bytes;
  std::size_t capacity = 0;
};

class ByteArena {
 public:
  /// Default slab size. Big enough that a 16 KB model blob packs ~60 per
  /// block; small enough that a pinned block (one live blob) wastes little.
  static constexpr std::size_t kDefaultBlockBytes = 1u << 20;

  explicit ByteArena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

  /// A bump allocation. `data` points into `block`'s slab; holding `block`
  /// keeps the bytes alive independent of the arena's recycling.
  struct Allocation {
    std::shared_ptr<const ArenaBlock> block;
    std::byte* data = nullptr;
    std::size_t size = 0;
  };

  /// Bump-allocates `size` bytes (8-byte aligned). Requests larger than the
  /// block size get a dedicated exact-size block. Amortized O(1): a new
  /// slab is touched only when the current one is exhausted.
  Allocation Allocate(std::size_t size);

  /// Round-boundary reset: retires the current block and recycles every
  /// retired slab no outstanding Allocation references (use_count == 1 —
  /// only the arena's own handle left) onto the free list, which later
  /// Allocate calls drain before creating slabs. The free list is bounded
  /// by the working set: the number of slabs the finished round handed
  /// out (the last round that handed out any), so a steady-state round
  /// finds every slab it needs there and creates none, while slabs beyond
  /// a shrunken working set, and oversized one-off blocks, are freed.
  /// Blocks still referenced by live allocations are left untouched —
  /// their bytes stay bit-stable until the last holder drops them.
  /// Returns the number of blocks put back on the free list.
  std::size_t Reclaim();

  // --- accounting (tests and bench assertions) ---
  /// Slabs ever heap-allocated (the O(1)-steady-state gate watches this).
  std::size_t blocks_created() const { return blocks_created_; }
  /// Blocks Reclaim() put back on the free list (cumulative).
  std::size_t blocks_recycled() const { return blocks_recycled_; }
  /// Blocks currently owned by the arena (filling + retired + free).
  std::size_t blocks_held() const {
    return retired_.size() + free_.size() + (current_ != nullptr ? 1 : 0);
  }
  std::size_t block_bytes() const { return block_bytes_; }

 private:
  std::size_t block_bytes_;
  std::shared_ptr<ArenaBlock> current_;
  std::size_t offset_ = 0;
  /// Full (or retired-by-Reclaim) blocks that may still back live
  /// allocations.
  std::vector<std::shared_ptr<ArenaBlock>> retired_;
  /// Recycled blocks ready for reuse.
  std::vector<std::shared_ptr<ArenaBlock>> free_;
  /// Slabs Allocate took (free list or new) since the last Reclaim, and
  /// the free-list bound Reclaim derives from it.
  std::size_t slabs_handed_out_ = 0;
  std::size_t working_set_ = 0;
  std::size_t blocks_created_ = 0;
  std::size_t blocks_recycled_ = 0;
};

}  // namespace simdc
