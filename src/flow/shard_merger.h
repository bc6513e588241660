// Deterministic shard-batch merge plane.
//
// Each fleet shard runs its own Dispatcher on its own event loop and
// delivers each dispatch tick into a ShardChannel instead of straight into
// the cloud. At every lockstep barrier the ShardMerger forwards the
// buffered ticks to the real downstream endpoint in
//
//     (tick time, first message id, shard index, per-shard FIFO)
//
// order. Message ids are assigned globally at round start in
// device-index order, so at any timestamp they encode one global
// scheduling order: device order within one upload wave, and wave order
// when two rounds' waves collide on the same microsecond (e.g. two
// threshold rounds closing at one instant anchor both next waves at the
// same time). With shards as CONTIGUOUS device-index ranges
// (data::PartitionDevices), the merge therefore reproduces at every width
// the FIFO order of one fleet (width 1, one channel), making the
// reduction order into the aggregator — and every bit of the result —
// independent of the shard width. This is the parameter-server-style
// fixed-order reduction discipline: parallelism in the plane that
// produces batches, a single deterministic order in the plane that
// consumes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/clock.h"
#include "flow/device_flow.h"
#include "sim/event_loop.h"

namespace simdc::flow {

/// Per-shard capture endpoint: a CloudEndpoint that records delivered
/// ticks instead of consuming them.
/// Single-writer by construction — only its shard's event loop touches it
/// — so the merger can run shards on a thread pool without locks.
class ShardChannel final : public CloudEndpoint {
 public:
  /// One captured dispatch tick. `time` is the tick's wire time —
  /// arrivals.front() — which is also the shard loop's clock when the
  /// delivery event fired. `key` is the first message's id: the
  /// equal-time merge key (ids are globally wave- then device-ordered).
  /// The updates are buffered as delivered (payloads already fetched +
  /// decoded on this shard's loop when its dispatcher has a decoder).
  struct Tick {
    SimTime time = 0;
    std::uint64_t key = 0;
    std::vector<DecodedUpdate> updates;
    std::vector<SimTime> arrivals;
  };

  void DeliverDecodedBatch(std::span<const DecodedUpdate> updates,
                           std::span<const SimTime> arrivals) override;

  bool empty() const { return ticks_.empty(); }
  /// Earliest buffered tick time (sim::EventLoop::kNoEvent when empty).
  SimTime NextTickTime() const {
    return ticks_.empty() ? sim::EventLoop::kNoEvent : ticks_.front().time;
  }

 private:
  friend class ShardMerger;
  std::deque<Tick> ticks_;
};

/// Funnels N ShardChannels into one downstream CloudEndpoint in
/// (tick time, message id, shard) order. Optionally advances a cloud-plane
/// event loop's clock to each tick time before forwarding, so downstream
/// code that consults Now() observes the same clock it would have seen as
/// a directly-scheduled delivery event.
class ShardMerger {
 public:
  /// `cloud_loop` may be nullptr (no clock synchronization). Neither
  /// pointer is owned; both must outlive the merger.
  ShardMerger(std::size_t shards, CloudEndpoint* downstream,
              sim::EventLoop* cloud_loop = nullptr);

  ShardChannel& channel(std::size_t shard) { return channels_[shard]; }
  std::size_t shards() const { return channels_.size(); }

  /// Earliest tick buffered across all shards (kNoEvent when none) —
  /// what the lockstep hooks (core::LockstepHooks) report as pending.
  SimTime NextTickTime() const;

  /// Forwards every buffered tick with time <= horizon downstream in
  /// (tick time, first message id, shard index, FIFO) order. Returns
  /// ticks forwarded.
  /// Reentrancy note: a forwarded tick may trigger downstream feedback
  /// (e.g. an aggregation closing a round) that synchronously produces
  /// nothing new here — shard channels only fill when their loops run —
  /// so the drain loop needs no snapshotting.
  std::size_t DrainUpTo(SimTime horizon);

  /// Forwards exactly the single earliest buffered tick if its time is
  /// <= horizon; returns whether one was forwarded. This is the
  /// single-step building block the lockstep drain (core::LockstepHooks)
  /// interleaves across tasks: globally-earliest-first, ties in ascending
  /// task id, one tick at a time, so every task's downstream observes the
  /// same clock and order it would have seen running solo.
  bool DrainOne(SimTime horizon);

  std::size_t ticks_merged() const { return ticks_merged_; }
  std::size_t messages_merged() const { return messages_merged_; }

 private:
  std::vector<ShardChannel> channels_;
  CloudEndpoint* downstream_;
  sim::EventLoop* cloud_loop_;
  std::size_t ticks_merged_ = 0;
  std::size_t messages_merged_ = 0;
};

}  // namespace simdc::flow
