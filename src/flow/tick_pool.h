// Recycled per-tick buffers for the dispatch plane.
//
// Every dispatch tick used to allocate fresh vectors for its batch,
// survivors, arrival stamps and decoded updates, then free them when the
// delivery event retired — at 100k devices that is four heap round-trips
// per tick, every tick, for buffers whose sizes repeat round after round.
// VectorPool keeps a small free list of retired buffers (capacity intact)
// so steady-state ticks reuse instead of reallocate: O(1) allocations per
// round once the first round has warmed the pool.
//
// Not thread-safe by design: each Dispatcher owns one TickBufferPool and
// both ends of a buffer's life — acquisition in DispatchBatch and release
// inside the delivery event — run on that dispatcher's event loop (the
// shard loop when fleets advance in lockstep; barrier synchronization
// orders the accesses across pool threads). The pool is held by
// shared_ptr so an in-flight delivery event outliving its dispatcher
// (DeviceFlow::RemoveTask mid-tick) still has somewhere safe to return
// its buffers.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "flow/decoded_update.h"
#include "flow/message.h"

namespace simdc::flow {

/// Free list of retired std::vector<T> buffers. Acquire hands back a
/// recycled buffer (cleared, capacity intact) when one is available, a
/// fresh one otherwise. Both calls sit on every dispatch tick, so the pool
/// keeps no statistics.
template <typename T>
class VectorPool {
 public:
  std::vector<T> Acquire() {
    if (free_.empty()) return {};
    std::vector<T> out = std::move(free_.back());
    free_.pop_back();
    return out;
  }

  /// Returns a buffer to the pool. Elements are destroyed; capacity is
  /// kept. Buffers beyond the free-list bound are simply freed.
  void Release(std::vector<T>&& buffer) {
    buffer.clear();
    if (free_.size() < kMaxFree) {
      free_.push_back(std::move(buffer));
    }
  }

 private:
  /// Bounds idle memory: a dispatcher has at most a few ticks in flight
  /// (dispatch + scheduled deliveries), so a short list captures them all.
  static constexpr std::size_t kMaxFree = 8;
  std::vector<std::vector<T>> free_;
};

/// The three buffer kinds a dispatch tick cycles through.
struct TickBufferPool {
  VectorPool<Message> messages;
  VectorPool<SimTime> arrivals;
  VectorPool<DecodedUpdate> decoded;
};

}  // namespace simdc::flow
