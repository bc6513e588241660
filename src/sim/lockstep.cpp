#include "sim/lockstep.h"

#include <algorithm>

#include "common/error.h"

namespace simdc::sim {

std::size_t LockstepGroup::Run(const Hooks& hooks,
                               SimDuration feedback_guard) {
  SIMDC_CHECK(feedback_guard >= 0, "LockstepGroup: negative feedback guard");
  std::size_t executed = 0;
  std::vector<EventLoop*> shards;  // reused across barriers
  std::vector<std::size_t> shard_executed;
  for (;;) {
    // 0. Membership, read before the cloud step (which may change it).
    shards.clear();
    if (hooks.shard_loops) hooks.shard_loops(shards);
    SimTime t0 = cloud_.NextEventTime();
    for (EventLoop* shard : shards) {
      SIMDC_CHECK(shard != nullptr, "LockstepGroup: null shard loop");
      SIMDC_CHECK(shard != &cloud_,
                  "LockstepGroup: cloud loop listed as shard");
      t0 = std::min(t0, shard->NextEventTime());
    }
    if (hooks.next_pending) t0 = std::min(t0, hooks.next_pending());
    if (t0 == EventLoop::kNoEvent) break;

    // 1. Cloud plane first at T0 (may schedule on any loop, only >= T0).
    executed += cloud_.RunUntil(t0);

    // 2. Horizon: strictly before the next cloud event, and no further
    // than one feedback guard past T0 so barrier feedback can never land
    // behind a shard clock. (kNoEvent is int64 max: subtracting one keeps
    // it a valid exclusive bound; the t0 additions are overflow-checked.)
    const SimTime cloud_next = cloud_.NextEventTime();
    SimTime horizon = std::min(
        cloud_next - 1, t0 > EventLoop::kNoEvent - 1 - feedback_guard
                            ? EventLoop::kNoEvent - 1
                            : t0 + feedback_guard);
    horizon = std::max(horizon, t0);
    shard_executed.assign(shards.size(), 0);
    ParallelFor(pool_, shards.size(), [&](std::size_t s) {
      shard_executed[s] = shards[s]->RunUntil(horizon);
    });
    for (const std::size_t n : shard_executed) executed += n;

    // 3. Merge barrier.
    if (hooks.drain) hooks.drain(horizon);
  }
  return executed;
}

}  // namespace simdc::sim
