#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace simdc::bench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::array<const char*, kLayers> kLayerSpanNames = {
    "core.round_turn", "sim.loop", "flow.dispatch", "cloud.deliver",
    "core.finalize"};

}  // namespace

std::int64_t TraceTotals::attributed_ns() const {
  std::int64_t sum = 0;
  for (const std::int64_t ns : layer_ns) sum += ns;
  return sum;
}

Tracer::Tracer(std::int32_t task) : task_(task) {}

void Tracer::Start() {
  origin_ns_ = NowNs();
  totals_.wall_ns = 0;
}

void Tracer::Stop() { totals_.wall_ns = NowNs() - origin_ns_; }

void Tracer::Call(Layer layer, const std::function<void()>& fn) {
  const Markers before = Read();
  const std::int64_t start = NowNs();
  fn();
  Book(layer, before, start, NowNs());
}

void Tracer::StepOne(sim::EventLoop& loop) {
  const Markers before = Read();
  const std::int64_t start = NowNs();
  (void)loop.Step();
  Book(Layer::kLoop, before, start, NowNs());
}

void Tracer::CloudUntil(sim::EventLoop& loop, SimTime until) {
  while (loop.NextEventTime() <= until) StepOne(loop);
  // RunUntil leaves the clock at `until` even when no event sits there.
  loop.FastForwardTo(until);
}

void Tracer::CloudAll(sim::EventLoop& loop) {
  while (loop.NextEventTime() != sim::EventLoop::kNoEvent) StepOne(loop);
}

void Tracer::AdvanceShards(const std::vector<sim::EventLoop*>& shards,
                           SimTime horizon, ThreadPool* pool) {
  const std::size_t n = shards.size();
  shard_start_.assign(n, 0);
  shard_end_.assign(n, 0);
  auto advance = [&](std::size_t s) {
    shard_start_[s] = NowNs();
    (void)shards[s]->RunUntil(horizon);
    shard_end_[s] = NowNs();
  };
  const Markers before = Read();
  const bool parallel = n > 1 && pool != nullptr;
  const std::int64_t start = NowNs();
  if (parallel) {
    pool->ParallelFor(n, advance);
  } else {
    for (std::size_t s = 0; s < n; ++s) advance(s);
  }
  const std::int64_t end = NowNs();
  const std::size_t workers = parallel ? std::min(n, pool->size()) : 1;
  totals_.shard_slot_ns += static_cast<std::int64_t>(workers) * (end - start);
  Book(Layer::kDispatch, before, start, end);
  const auto parent = static_cast<std::int32_t>(spans_.size()) - 1;
  for (std::size_t s = 0; s < n; ++s) {
    totals_.shard_busy_ns += shard_end_[s] - shard_start_[s];
    Keep("flow.shard", shard_start_[s], shard_end_[s], parent,
         static_cast<std::int32_t>(before.opened),
         static_cast<std::int32_t>(s + 1));
  }
}

void Tracer::BeginBarrier() {
  const std::int64_t start = NowNs();
  barrier_ = static_cast<std::int32_t>(spans_.size());
  Keep("sim.barrier", start, start, -1,
       static_cast<std::int32_t>(Read().opened), 0);
  if (barrier_ >= static_cast<std::int32_t>(spans_.size())) barrier_ = -1;
}

void Tracer::EndBarrier() {
  ++totals_.barriers;
  if (barrier_ >= 0) spans_[static_cast<std::size_t>(barrier_)].end_ns = NowNs();
  barrier_ = -1;
}

void Tracer::Book(Layer layer, const Markers& before, std::int64_t start,
                  std::int64_t end) {
  const Markers after = Read();
  if (after.turns != before.turns) {
    layer = Layer::kRoundTurn;
  } else if (layer == Layer::kLoop) {
    if (after.deliveries != before.deliveries) {
      layer = Layer::kDeliver;
    } else if (after.flow != before.flow) {
      layer = Layer::kDispatch;
    }
  }
  const auto index = static_cast<std::size_t>(layer);
  totals_.layer_ns[index] += end - start;
  Keep(kLayerSpanNames[index], start, end, barrier_,
       static_cast<std::int32_t>(before.opened), 0);
}

void Tracer::Keep(const char* name, std::int64_t start, std::int64_t end,
                  std::int32_t parent, std::int32_t round, std::int32_t tid) {
  if (spans_.size() >= kMaxSpans) return;
  if (spans_.empty()) spans_.reserve(1 << 14);
  spans_.push_back(Span{name, start, end, parent, round, tid});
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"main\"}}");
  std::int32_t max_tid = 0;
  for (const Span& span : spans_) max_tid = std::max(max_tid, span.tid);
  for (std::int32_t tid = 1; tid <= max_tid; ++tid) {
    std::fprintf(out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"shard %d\"}}",
                 tid, tid - 1);
  }
  for (const Span& span : spans_) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"simdc\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"task\":%d,\"round\":%d,\"parent\":%d}}",
                 span.name,
                 static_cast<double>(span.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.tid, task_, span.round, span.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

void TracedLockstep(sim::EventLoop& cloud,
                    const std::vector<sim::EventLoop*>& shards,
                    ThreadPool* pool, SimDuration feedback_guard,
                    flow::ShardMerger& merger, Tracer& tracer) {
  constexpr SimTime kNoEvent = sim::EventLoop::kNoEvent;
  for (;;) {
    tracer.BeginBarrier();
    SimTime t0 = kNoEvent;
    tracer.Call(Layer::kLoop, [&] {
      t0 = cloud.NextEventTime();
      for (sim::EventLoop* shard : shards) {
        t0 = std::min(t0, shard->NextEventTime());
      }
      t0 = std::min(t0, merger.NextTickTime());
    });
    if (t0 == kNoEvent) {
      tracer.EndBarrier();
      break;
    }
    tracer.CloudUntil(cloud, t0);
    SimTime horizon = t0;
    tracer.Call(Layer::kLoop, [&] {
      const SimTime cloud_next = cloud.NextEventTime();
      horizon = std::max(t0, std::min(cloud_next - 1,
                                      t0 > kNoEvent - 1 - feedback_guard
                                          ? kNoEvent - 1
                                          : t0 + feedback_guard));
    });
    tracer.AdvanceShards(shards, horizon, pool);
    tracer.Call(Layer::kDeliver, [&] { (void)merger.DrainUpTo(horizon); });
    tracer.EndBarrier();
  }
}

}  // namespace simdc::bench
