#include "flow/shard_merger.h"

#include <algorithm>

#include "common/error.h"

namespace simdc::flow {

void ShardChannel::DeliverTick(std::vector<Message> tick) {
  if (!tick.empty()) ticks_.push_back(std::move(tick));
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
    const Message& head = channel.ticks_.front().front();
    const SimTime t = head.arrival;
    const std::uint64_t key = head.id.value();
    if (t < best || (t == best && key < best_key)) {
      best = t;
      best_key = key;
      shard = s;
    }
  }
  if (best == sim::EventLoop::kNoEvent || best > horizon) return false;

  // Pop before forwarding: downstream feedback may re-enter
  // NextTickTime() (via the lockstep hooks) and must not see this tick.
  std::vector<Message> tick = std::move(channels_[shard].ticks_.front());
  channels_[shard].ticks_.pop_front();
  const std::size_t messages = tick.size();

  // Mirror the clock a directly-scheduled delivery event would see: the
  // delivery fires at the tick's first arrival.
  if (cloud_loop_ != nullptr) cloud_loop_->RunUntil(best);
  downstream_->DeliverTick(std::move(tick));
  ++ticks_merged_;
  messages_merged_ += messages;
  return true;
}

}  // namespace simdc::flow
