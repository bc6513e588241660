// Shared cloud storage (blob store).
//
// §V-A: devices "upload computation results to storage upon task
// completion and transmit messages to cloud services. Cloud services then
// retrieve the corresponding data from storage based on the received
// messages." The blob store is that shared storage: content-addressed by
// an opaque BlobId carried inside DeviceFlow messages.
//
// Memory plane: payload blobs (the O(msgs)-per-round bulk) are packed into
// a refcounted bump arena (common/arena.h), so steady-state rounds touch
// the heap O(1) times. Devices write their payloads straight into arena
// slots (ReservePooled → encode in place → CommitPooled), so each payload
// exists once; PutPooled is the copying form of the same path. Long-lived
// blobs (published global models) keep the standalone Put path. Both
// produce the same SharedBlob view type, and both honor the
// Delete-while-held guarantee — a SharedBlob owns a reference to its
// backing storage (arena block or standalone buffer), never the other way
// round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/error.h"
#include "common/ids.h"

namespace simdc::cloud {

/// Observer of BlobStore mutations — the seam the durability plane hangs
/// off (persist::DurableStore records every Put, every blob a CommitPooled
/// publishes, and every Delete into its append-only blob log). Callbacks
/// run under the store mutex, after the mutation is applied;
/// implementations must be cheap (buffer, don't do I/O) and must not call
/// back into the store.
class BlobJournal {
 public:
  virtual ~BlobJournal() = default;
  virtual void OnPut(BlobId id, std::span<const std::byte> bytes) = 0;
  virtual void OnDelete(BlobId id) = 0;
};

/// Shared-ownership view of a stored blob (see BlobStore::GetShared).
/// Value-semantic: copying is one shared_ptr copy, no payload copy. The
/// owner handle keeps the backing bytes alive — a standalone buffer for
/// Put blobs, a whole arena block for pooled blobs — so the view stays
/// valid (and bit-stable) across Delete, ReclaimArena, and store
/// destruction while any holder remains.
class SharedBlob {
 public:
  SharedBlob() = default;
  SharedBlob(std::shared_ptr<const void> owner, const std::byte* data,
             std::size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::byte> span() const { return {data_, size_}; }
  const std::byte& operator[](std::size_t i) const { return data_[i]; }
  const std::byte* begin() const { return data_; }
  const std::byte* end() const { return data_ + size_; }
  explicit operator bool() const { return owner_ != nullptr; }

  /// Identity of the backing storage (aliasing assertions in tests).
  const void* owner() const { return owner_.get(); }
  /// Shared ownership of the backing storage: what a decoded view that
  /// aliases these bytes holds to keep them alive (ml::ModelView).
  const std::shared_ptr<const void>& holder() const { return owner_; }

 private:
  std::shared_ptr<const void> owner_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Arena slots reserved for payloads their producers write in place (see
/// BlobStore::ReservePooled). Ids are assigned at reservation; the slots'
/// blobs stay invisible to readers until BlobStore::CommitPooled publishes
/// them. Distinct slots never overlap, so N writers may fill N slots
/// concurrently. Move-only: a reservation is committed once.
class PooledReservation {
 public:
  PooledReservation() = default;
  PooledReservation(PooledReservation&&) = default;
  PooledReservation& operator=(PooledReservation&&) = default;
  PooledReservation(const PooledReservation&) = delete;
  PooledReservation& operator=(const PooledReservation&) = delete;

  std::size_t size() const { return slots_.size(); }
  /// The id slot `i` publishes under: first id + i.
  BlobId id(std::size_t i) const { return BlobId(first_id_ + i); }
  /// Slot `i`'s bytes (8-byte aligned), to be written before the commit.
  std::span<std::byte> slot(std::size_t i) const {
    return {slots_[i].data, slots_[i].size};
  }

 private:
  friend class BlobStore;
  std::uint64_t first_id_ = 0;
  std::vector<ByteArena::Allocation> slots_;
};

/// All operations are thread-safe; blobs are immutable once Put, so a
/// SharedBlob handed out by GetShared stays valid (and bit-stable) even if
/// the blob is Deleted, its arena block reclaimed, or the store destroyed
/// while readers hold it — the property that lets a staged update alias
/// its payload with zero copies until the round-close flush reads it, and
/// flush lanes read while devices keep writing new payloads.
class BlobStore {
 public:
  /// Stores a blob in a standalone buffer; returns its id. The path for
  /// long-lived blobs (published global models) whose lifetime should not
  /// pin an arena block.
  BlobId Put(std::vector<std::byte> bytes);

  /// Reserves `count` arena slots of `bytes_each` bytes for payloads the
  /// caller writes in place, with ids next_id() .. next_id() + count - 1
  /// in slot order. A slot larger than an arena slab gets its own block.
  /// Nothing is visible or counted until CommitPooled. The path for
  /// per-round payload uploads: each device encodes straight into its
  /// slot, so the payload is never copied. Pair with ReclaimArena at
  /// round boundaries so blocks whose blobs were all Deleted get recycled
  /// instead of freed.
  PooledReservation ReservePooled(std::size_t count, std::size_t bytes_each);

  /// Publishes every slot of `reservation` (from this store) as a blob, in
  /// id order: one bytes_written/total_bytes booking and one journal
  /// record per blob, carrying the bytes written into the slot.
  void CommitPooled(PooledReservation reservation);

  /// Stores a blob by copying `bytes` into the pooled arena: a one-slot
  /// ReservePooled, a copy, and CommitPooled.
  BlobId PutPooled(std::span<const std::byte> bytes);

  /// Fetches a blob (copy; the store stays authoritative).
  Result<std::vector<std::byte>> Get(BlobId id) const;

  /// Fetches a blob by shared ownership — the hot-path read: one mutex
  /// acquisition and one shared_ptr copy, no payload copy.
  Result<SharedBlob> GetShared(BlobId id) const;

  /// Removes a blob. Typed error paths: kNotFound for an id the store has
  /// never seen or already deleted — callers that track live ids (the
  /// engine's round reclaim) treat it as a bookkeeping bug, not a silent
  /// miss.
  Status Delete(BlobId id);
  bool Contains(BlobId id) const;

  /// Attaches (or detaches, with nullptr) the mutation journal. The
  /// durability plane attaches AFTER any recovery replay so replayed
  /// mutations are not re-journaled.
  void set_journal(BlobJournal* journal);

  /// Read-fault hook for store-I/O-error testing: consulted by Get /
  /// GetShared before the lookup; a non-OK return is surfaced to the
  /// caller as that error (distinct from kNotFound: the aggregation
  /// service books it as a store error, not a decode failure).
  using ReadFaultHook = std::function<Status(BlobId)>;
  void set_read_fault_hook(ReadFaultHook hook);

  /// Recovery-replay insert: stores `bytes` under an explicit id (log
  /// records carry the ids the original run assigned). Bumps next_id_ past
  /// `id`, counts into total_bytes_ but NOT bytes_written_ — cumulative
  /// traffic counters are restored separately (RestoreTrafficCounters), so
  /// a recovered store reports the original run's traffic, not the
  /// replay's. Never journaled.
  void RestoreBlob(BlobId id, std::vector<std::byte> bytes);

  /// Pins the id counter (recovery restores the checkpoint's cursor so
  /// re-executed rounds re-assign identical blob ids).
  void SetNextId(std::uint64_t next_id);
  /// The id the next Put will assign (checkpointed as the blob-id cursor).
  std::uint64_t next_id() const;
  /// Restores cumulative traffic counters from a checkpoint.
  void RestoreTrafficCounters(std::size_t written, std::size_t read);

  /// Round-boundary arena maintenance: recycles arena blocks that no live
  /// blob or outstanding SharedBlob references (see ByteArena::Reclaim).
  /// Returns the number of blocks recycled. Safe to call at any time —
  /// blocks still referenced are left alone.
  std::size_t ReclaimArena();

  std::size_t blob_count() const;
  /// Total stored bytes (capacity planning / experiment accounting).
  std::size_t total_bytes() const;
  /// Cumulative bytes ever written (upload traffic seen by storage).
  std::size_t bytes_written() const;
  /// Cumulative bytes ever read (download traffic served).
  std::size_t bytes_read() const;
  /// Arena slabs ever heap-allocated (the O(1)-steady-state gate).
  std::size_t arena_blocks_created() const;
  /// Arena blocks recycled by ReclaimArena (cumulative reuse events).
  std::size_t arena_blocks_recycled() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<BlobId, SharedBlob> blobs_;
  ByteArena arena_;
  BlobJournal* journal_ = nullptr;
  ReadFaultHook read_fault_hook_;
  std::uint64_t next_id_ = 1;
  std::size_t total_bytes_ = 0;
  std::size_t bytes_written_ = 0;
  mutable std::size_t bytes_read_ = 0;
};

}  // namespace simdc::cloud
