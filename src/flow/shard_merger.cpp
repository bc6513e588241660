#include "flow/shard_merger.h"

#include <algorithm>

#include "common/error.h"

namespace simdc::flow {

void ShardChannel::DeliverDecodedBatch(std::span<const DecodedUpdate> updates,
                                       std::span<const SimTime> arrivals) {
  SIMDC_CHECK(updates.size() == arrivals.size(),
              "ShardChannel: tick span size mismatch");
  if (updates.empty()) return;
  // Ticks buffer the updates as-is — decoded models are shared views, so
  // parking a tick at the barrier costs O(messages) pointer copies, not
  // O(messages * dim) payload copies.
  Tick tick;
  tick.time = arrivals.front();
  tick.key = updates.front().message.id.value();
  tick.updates.assign(updates.begin(), updates.end());
  tick.arrivals.assign(arrivals.begin(), arrivals.end());
  ticks_.push_back(std::move(tick));
}

ShardMerger::ShardMerger(std::size_t shards, CloudEndpoint* downstream,
                         sim::EventLoop* cloud_loop)
    : channels_(shards), downstream_(downstream), cloud_loop_(cloud_loop) {
  SIMDC_CHECK(shards > 0, "ShardMerger: need at least one shard");
  SIMDC_CHECK(downstream != nullptr, "ShardMerger: null downstream");
}

SimTime ShardMerger::NextTickTime() const {
  SimTime best = sim::EventLoop::kNoEvent;
  for (const ShardChannel& channel : channels_) {
    best = std::min(best, channel.NextTickTime());
  }
  return best;
}

std::size_t ShardMerger::DrainUpTo(SimTime horizon) {
  std::size_t forwarded = 0;
  while (DrainOne(horizon)) ++forwarded;
  return forwarded;
}

bool ShardMerger::DrainOne(SimTime horizon) {
  // Equal tick times resolve by first-message id (globally wave- then
  // device-ordered — the global scheduling order), then by shard
  // index; strict-less keeps per-shard FIFO as the final tie-break.
  SimTime best = sim::EventLoop::kNoEvent;
  std::uint64_t best_key = 0;
  std::size_t shard = 0;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    const ShardChannel& channel = channels_[s];
    if (channel.ticks_.empty()) continue;
    const SimTime t = channel.ticks_.front().time;
    const std::uint64_t key = channel.ticks_.front().key;
    if (t < best || (t == best && key < best_key)) {
      best = t;
      best_key = key;
      shard = s;
    }
  }
  if (best == sim::EventLoop::kNoEvent || best > horizon) return false;

  // Pop before forwarding: downstream feedback may re-enter
  // NextTickTime() (via the lockstep hooks) and must not see this tick.
  ShardChannel::Tick tick = std::move(channels_[shard].ticks_.front());
  channels_[shard].ticks_.pop_front();

  // Mirror the clock a directly-scheduled delivery event would see: the
  // delivery fires at the tick's first arrival.
  if (cloud_loop_ != nullptr) cloud_loop_->RunUntil(tick.time);
  downstream_->DeliverDecodedBatch(std::span<const DecodedUpdate>(tick.updates),
                                   std::span<const SimTime>(tick.arrivals));
  ++ticks_merged_;
  messages_merged_ += tick.updates.size();
  return true;
}

}  // namespace simdc::flow
