// Lockstep execution of one cloud-plane event loop plus N shard-plane
// event loops against a per-tick merge barrier.
//
// The fleet-shard topology splits a simulation's flow plane (device
// uploads, dispatch ticks) across one or more per-shard EventLoops while
// cloud-side events (scheduled aggregations, stall guards, round
// bookkeeping) stay on one global loop. Correctness then hinges on a
// fixed interleaving discipline, which this executor owns:
//
//   1. Cloud-plane events run first at any timestamp: the group advances
//      the cloud loop through T0 (the global minimum next-event time)
//      before any shard touches T0.
//   2. Shard loops then advance — in parallel when a ThreadPool is given,
//      each loop on its own worker — up to a horizon H chosen so no
//      cloud event and no delivery feedback can land inside the window:
//      H < the next cloud event, and H <= T0 + feedback_guard, where
//      feedback_guard lower-bounds the delay between a drained item's
//      timestamp and anything its delivery schedules.
//   3. The barrier fires: `drain(H)` forwards every buffered shard
//      product with timestamp <= H downstream (the caller merges in a
//      deterministic total order — see flow::ShardMerger), possibly
//      scheduling new events
//      on any loop — but only at times >= item time + feedback_guard,
//      which the horizon guarantees is >= every shard clock.
//
// Within one plane, each EventLoop keeps its own (time, seq) FIFO order,
// so runs are bit-for-bit reproducible at any shard width and with or
// without the worker pool. Exact-microsecond collisions BETWEEN planes
// follow the conventions above rather than a global scheduling sequence;
// see core::FlExperimentConfig::shards for the user-facing contract.
//
// This is the one driver loop: every FL run, solo or multi-tenant, at any
// width, goes through it (core::LockstepHooks supplies the hooks over a
// set of task runtimes, each with at least one shard loop). The shard set
// is read once per barrier, before the cloud step, so it may grow between
// barriers (multi-tenant admissions add loops). With no shard loops (no
// runtime admitted) the group steps the cloud loop alone, in exactly
// EventLoop::Run()'s order.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "sim/event_loop.h"

namespace simdc::sim {

class LockstepGroup {
 public:
  struct Hooks {
    /// Appends the shard loops to advance at this barrier to `out`
    /// (handed over empty). Called once per barrier, before the cloud
    /// step: a loop a cloud event adds at T0 is first advanced at the next
    /// barrier. Every loop must be non-null, must not be the cloud loop
    /// and must outlive the barrier. Unset = no shard loops.
    std::function<void(std::vector<EventLoop*>& out)> shard_loops;
    /// Earliest buffered-but-undelivered shard product (EventLoop::kNoEvent
    /// when none). Counted into the global minimum so a backlogged tick is
    /// never starved behind far-future events.
    std::function<SimTime()> next_pending;
    /// Merge barrier: deliver every buffered product with time <= horizon,
    /// in the caller's deterministic order. MUST consume all of them —
    /// leaving one behind stalls the group (the minimum stops advancing).
    std::function<void(SimTime horizon)> drain;
  };

  /// `pool` may be nullptr (shards advance sequentially, same results).
  /// The cloud loop must outlive the group.
  explicit LockstepGroup(EventLoop& cloud, ThreadPool* pool = nullptr)
      : cloud_(cloud), pool_(pool) {}

  /// Runs all loops to quiescence under the lockstep discipline. Returns
  /// the number of events executed across every loop.
  std::size_t Run(const Hooks& hooks, SimDuration feedback_guard);

 private:
  EventLoop& cloud_;
  ThreadPool* pool_;
};

}  // namespace simdc::sim
