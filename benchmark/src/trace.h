// Traced run: FlEngine's drive loop re-stated over TaskRuntime's public
// per-step surface, with a span around every call into a layer.
//
// The untraced run calls FlEngine::Run(). The traced run replaces it with a
// bench-side copy of the loop it drives — sim::LockstepGroup's cloud-first /
// shard-advance / merge-barrier step on sharded runs, the cloud loop alone
// otherwise — that steps the cloud loop one event at a time, so each span
// has one owner. Results must stay bit-identical to the untraced run
// (main.cpp checks the digests). MultiTenantEngine exposes no per-step
// surface, so it is never traced (see RunFirstTask).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "flow/shard_merger.h"
#include "sim/event_loop.h"

namespace simdc::bench {

/// Where a span's self time is booked.
enum class Layer : std::uint8_t {
  /// Cloud events (and Begin) that close a round and/or open the next:
  /// flush + publish, evaluate, persist, and the next round's train,
  /// encode, put and upload scheduling.
  kRoundTurn,
  /// Event-loop and lockstep-loop time outside the other layers: cloud
  /// events that turn no round, dispatch or deliver nothing (schedule
  /// ticks that close nothing, stall guards, deadlines, round-end
  /// signals), plus each barrier's next-event scan and horizon.
  kLoop,
  /// Flow plane: the parallel shard advance (uploads, dispatch, decode) or,
  /// on the unsharded path, cloud-loop events that moved dispatcher
  /// counters without delivering.
  kDispatch,
  /// Cloud ingest: the merge-barrier drain (delivery, staging, partial-sum
  /// flush) or, unsharded, cloud-loop events that delivered updates.
  kDeliver,
  /// TaskRuntime::Finalize.
  kFinalize,
};
inline constexpr std::size_t kLayers = 5;

/// Counters read around each traced call to decide which layer owns it.
struct Markers {
  /// Rounds opened (all tasks) — also the span's round stamp.
  std::uint64_t opened = 0;
  /// Rounds opened plus tasks completed: moves when a round turns.
  std::uint64_t turns = 0;
  /// Dispatcher activity (unsharded path only).
  std::uint64_t flow = 0;
  /// Updates received by the cloud (unsharded path only).
  std::uint64_t deliveries = 0;
};

struct TraceTotals {
  std::int64_t wall_ns = 0;
  std::array<std::int64_t, kLayers> layer_ns{};
  /// Σ per-shard RunUntil time, and (workers in use × advance wall).
  std::int64_t shard_busy_ns = 0;
  std::int64_t shard_slot_ns = 0;
  std::uint64_t barriers = 0;

  std::int64_t attributed_ns() const;
};

class Tracer {
 public:
  /// `task` stamps every span.
  explicit Tracer(std::int32_t task);

  void set_markers(std::function<Markers()> markers) {
    markers_ = std::move(markers);
  }

  /// Wall-clock window of the whole traced run.
  void Start();
  void Stop();

  /// Times `fn` as one span of `layer`; a call during which a round
  /// turned is booked as kRoundTurn instead, and an unsharded cloud event
  /// (kLoop) that delivered or dispatched as kDeliver / kDispatch.
  void Call(Layer layer, const std::function<void()>& fn);
  /// EventLoop::RunUntil(until), one timed span per event.
  void CloudUntil(sim::EventLoop& loop, SimTime until);
  /// EventLoop::Run(), one timed span per event.
  void CloudAll(sim::EventLoop& loop);
  /// Advances every shard loop to `horizon` — in parallel on `pool` when
  /// there is more than one — as one kDispatch span with a child per shard.
  void AdvanceShards(const std::vector<sim::EventLoop*>& shards,
                     SimTime horizon, ThreadPool* pool);
  /// Brackets one lockstep iteration (the parent of the spans inside it).
  void BeginBarrier();
  void EndBarrier();

  const TraceTotals& totals() const { return totals_; }

  /// Writes the kept spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int32_t round;
    std::int32_t tid;
  };
  /// Spans kept for the trace file; totals keep counting past the cap.
  static constexpr std::size_t kMaxSpans = 200000;

  void StepOne(sim::EventLoop& loop);
  void Book(Layer layer, const Markers& before, std::int64_t start,
            std::int64_t end);
  void Keep(const char* name, std::int64_t start, std::int64_t end,
            std::int32_t parent, std::int32_t round, std::int32_t tid);
  Markers Read() const { return markers_ ? markers_() : Markers{}; }

  std::int32_t task_;
  std::function<Markers()> markers_;
  TraceTotals totals_;
  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::int32_t barrier_ = -1;
  std::vector<std::int64_t> shard_start_;
  std::vector<std::int64_t> shard_end_;
};

/// sim::LockstepGroup::Run with every step traced, for one task's shard
/// loops and merger (the loop FlEngine::Run drives on sharded runs).
void TracedLockstep(sim::EventLoop& cloud,
                    const std::vector<sim::EventLoop*>& shards,
                    ThreadPool* pool, SimDuration feedback_guard,
                    flow::ShardMerger& merger, Tracer& tracer);

}  // namespace simdc::bench
