// Unit tests for DeviceFlow: shelf, sorter routing, the three dispatch
// strategies, AUC discretization, dropout, rate limiting and task
// isolation (§V).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numeric>
#include <set>
#include <span>

#include "common/stats.h"
#include "flow/device_flow.h"
#include "flow/rate_functions.h"
#include "flow/shard_merger.h"
#include "flow/strategy.h"
#include "golden_digest.h"
#include "sim/event_loop.h"

namespace simdc::flow {
namespace {

/// Records every delivered message with its arrival time.
class RecordingEndpoint final : public CloudEndpoint {
 public:
  void DeliverTick(std::vector<Message> tick) override {
    for (const Message& message : tick) {
      deliveries.emplace_back(message.arrival, message);
    }
  }
  std::vector<std::pair<SimTime, Message>> deliveries;
};

Message MakeMessage(TaskId task, std::uint64_t id, std::size_t round = 0) {
  Message m;
  m.id = MessageId(id);
  m.task = task;
  m.device = DeviceId(id);
  m.round = round;
  m.sample_count = 10;
  return m;
}

// ---------- Shelf ----------

TEST(ShelfTest, FifoTake) {
  Shelf shelf;
  for (std::uint64_t i = 0; i < 5; ++i) {
    shelf.Put(MakeMessage(TaskId(1), i));
  }
  EXPECT_EQ(shelf.size(), 5u);
  EXPECT_EQ(shelf.front().id, MessageId(0));
  EXPECT_EQ(shelf.Take().id, MessageId(0));
  EXPECT_EQ(shelf.Take().id, MessageId(1));
  EXPECT_EQ(shelf.front().id, MessageId(2));  // front() does not remove
  EXPECT_EQ(shelf.size(), 3u);
  for (std::uint64_t i = 2; i < 5; ++i) {
    EXPECT_EQ(shelf.Take().id, MessageId(i));
  }
  EXPECT_TRUE(shelf.empty());
}

// ---------- Sorter / configuration ----------

TEST(DeviceFlowTest, SorterRoutesByTaskId) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint a, b;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{1}, 0.0}, &a).ok());
  ASSERT_TRUE(flow.ConfigureTask(TaskId(2), RealtimeAccumulated{{1}, 0.0}, &b).ok());
  ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), 10)).ok());
  ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(2), 20)).ok());
  ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), 11)).ok());
  loop.Run();
  EXPECT_EQ(a.deliveries.size(), 2u);
  EXPECT_EQ(b.deliveries.size(), 1u);
  EXPECT_EQ(b.deliveries[0].second.id, MessageId(20));
}

TEST(DeviceFlowTest, UnknownTaskRejected) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  EXPECT_FALSE(flow.OnMessage(MakeMessage(TaskId(9), 1)).ok());
  EXPECT_FALSE(flow.OnRoundStart(TaskId(9), 0).ok());
  EXPECT_FALSE(flow.OnRoundEnd(TaskId(9), 0).ok());
}

TEST(DeviceFlowTest, DuplicateConfigureRejected) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{}, &sink).ok());
  EXPECT_FALSE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{}, &sink).ok());
  EXPECT_TRUE(flow.RemoveTask(TaskId(1)).ok());
  EXPECT_FALSE(flow.RemoveTask(TaskId(1)).ok());
  EXPECT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{}, &sink).ok());
}

// ---------- Real-time accumulated strategy ----------

TEST(RealtimeTest, ThresholdOneIsPassThrough) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{1}, 0.0}, &sink).ok());
  for (std::uint64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  loop.Run();
  EXPECT_EQ(sink.deliveries.size(), 7u);
  const auto* dispatcher = flow.FindDispatcher(TaskId(1));
  EXPECT_EQ(dispatcher->stats().sent, 7u);
  EXPECT_EQ(dispatcher->stats().batches.size(), 7u);
}

TEST(RealtimeTest, ThresholdBatches) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{5}, 0.0}, &sink).ok());
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  const auto* dispatcher = flow.FindDispatcher(TaskId(1));
  // Two batches of 5 fired; 2 messages below threshold remain shelved.
  EXPECT_EQ(dispatcher->stats().batches.size(), 2u);
  EXPECT_EQ(dispatcher->shelf().size(), 2u);
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());  // flushes remainder
  EXPECT_EQ(dispatcher->shelf().size(), 0u);
  loop.Run();
  EXPECT_EQ(sink.deliveries.size(), 12u);
}

TEST(RealtimeTest, ThresholdSequenceCycles) {
  // §VI-C2: sequence [20, 100, 50] cycles; here a compact [2, 3].
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{2, 3}, 0.0},
                                 &sink).ok());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  const auto& batches = flow.FindDispatcher(TaskId(1))->stats().batches;
  ASSERT_EQ(batches.size(), 4u);
  EXPECT_EQ(batches[0].second, 2u);
  EXPECT_EQ(batches[1].second, 3u);
  EXPECT_EQ(batches[2].second, 2u);
  EXPECT_EQ(batches[3].second, 3u);
  loop.Run();
}

TEST(RealtimeTest, RoundStartResetsCycle) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{2, 5}, 0.0},
                                 &sink).ok());
  ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), 0)).ok());
  ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), 1)).ok());  // batch of 2
  ASSERT_TRUE(flow.OnRoundStart(TaskId(1), 1).ok());            // reset cursor
  ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), 2)).ok());
  ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), 3)).ok());  // batch of 2 again
  const auto& batches = flow.FindDispatcher(TaskId(1))->stats().batches;
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].second, 2u);
  loop.Run();
}

TEST(RealtimeTest, DropoutProbabilityDropsFraction) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{1}, 0.3},
                                 &sink, /*seed=*/7).ok());
  const std::size_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  loop.Run();
  const auto& stats = flow.FindDispatcher(TaskId(1))->stats();
  EXPECT_EQ(stats.sent + stats.dropped, n);
  EXPECT_NEAR(static_cast<double>(stats.dropped) / n, 0.3, 0.03);
  EXPECT_EQ(sink.deliveries.size(), stats.sent);
}

TEST(RealtimeTest, DropoutIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::EventLoop loop;
    DeviceFlow flow(loop);
    RecordingEndpoint sink;
    EXPECT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{1}, 0.5},
                                   &sink, seed).ok());
    for (std::uint64_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
    }
    loop.Run();
    return flow.FindDispatcher(TaskId(1))->stats().dropped;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

// ---------- Time-point strategy ----------

TEST(TimePointTest, DispatchesAtConfiguredOffsets) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimePointDispatch strategy;
  strategy.points = {{Seconds(10), true, 4, 0.0, 0},
                     {Seconds(20), true, 6, 0.0, 0}};
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  ASSERT_EQ(sink.deliveries.size(), 10u);
  const auto& batches = flow.FindDispatcher(TaskId(1))->stats().batches;
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].first, Seconds(10));
  EXPECT_EQ(batches[0].second, 4u);
  EXPECT_EQ(batches[1].first, Seconds(20));
  EXPECT_EQ(batches[1].second, 6u);
}

TEST(TimePointTest, AbsoluteTimePoints) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimePointDispatch strategy;
  strategy.points = {{Seconds(100), false, 3, 0.0, 0}};
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  ASSERT_FALSE(sink.deliveries.empty());
  EXPECT_GE(sink.deliveries.front().first, Seconds(100));
}

TEST(TimePointTest, RandomDiscardDropsExactCount) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimePointDispatch strategy;
  strategy.points = {{Seconds(1), true, 10, 0.0, 4}};
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink, 5).ok());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  EXPECT_EQ(sink.deliveries.size(), 6u);
  EXPECT_EQ(flow.FindDispatcher(TaskId(1))->stats().dropped, 4u);
}

TEST(TimePointTest, CountClampsToShelved) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimePointDispatch strategy;
  strategy.points = {{Seconds(1), true, 100, 0.0, 0}};
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  EXPECT_EQ(sink.deliveries.size(), 5u);
}

// ---------- Rate limiting (Fig. 10b) ----------

TEST(RateLimitTest, LargeBatchSpreadsOverTime) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimePointDispatch strategy;
  strategy.points = {{Seconds(0), true, 1400, 0.0, 0}};
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  for (std::uint64_t i = 0; i < 1400; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  ASSERT_EQ(sink.deliveries.size(), 1400u);
  // 1400 messages at 700 msg/s ≈ 2 s of spread past the dispatch point.
  const SimTime first = sink.deliveries.front().first;
  const SimTime last = sink.deliveries.back().first;
  EXPECT_NEAR(ToSeconds(last - first), 2.0, 0.1);
  // Arrivals are monotone.
  for (std::size_t i = 1; i < sink.deliveries.size(); ++i) {
    EXPECT_GE(sink.deliveries[i].first, sink.deliveries[i - 1].first);
  }
}

// ---------- AUC discretization (design decision D2) ----------

TEST(DiscretizeTest, CountsSumExactly) {
  for (std::size_t total : {1u, 7u, 100u, 9999u}) {
    const auto plan =
        DiscretizeRate(NormalCurve(1.0), Minutes(1.0), total, 700.0);
    std::size_t sum = 0;
    for (const auto& slot : plan) sum += slot.count;
    EXPECT_EQ(sum, total) << "total=" << total;
  }
}

TEST(DiscretizeTest, ZeroMessagesEmptyPlan) {
  EXPECT_TRUE(DiscretizeRate(NormalCurve(1.0), Minutes(1), 0, 700.0).empty());
}

TEST(DiscretizeTest, OffsetsAreWithinIntervalAndIncreasing) {
  const auto plan =
      DiscretizeRate(SinPlusOne(), Seconds(30.0), 1000, 700.0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GE(plan[i].offset, 0);
    EXPECT_LT(plan[i].offset, Seconds(30.0));
    if (i > 0) {
      EXPECT_GT(plan[i].offset, plan[i - 1].offset);
    }
  }
}

TEST(DiscretizeTest, RespectsCapacityLimit) {
  // A very peaky curve must be sliced finely enough that no single
  // dispatch point exceeds the per-point capacity limit (§V-B: "the number
  // of messages sent at any single point does not exceed the transmission
  // capacity limit"). Largest-remainder apportionment may add one extra.
  const auto curve = NormalCurve(0.3);
  const std::size_t total = 50000;
  const double capacity = 700.0;
  const auto plan = DiscretizeRate(curve, Minutes(1.0), total, capacity);
  for (const auto& slot : plan) {
    EXPECT_LE(static_cast<double>(slot.count), capacity + 1.001);
  }
  // And the subdivision is meaningful: far more slots than the minimum.
  EXPECT_GT(plan.size(), 400u);
}

TEST(DiscretizeTest, ProfileTracksCurve) {
  // Per-slot counts correlate with f(t) sampled at slot centers.
  const auto curve = NormalCurve(1.0);
  const auto plan = DiscretizeRate(curve, Minutes(1.0), 10000, 700.0);
  std::vector<double> counts, values;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    counts.push_back(static_cast<double>(plan[i].count));
    const double t = curve.domain_lo +
                     curve.domain_width() *
                         (static_cast<double>(i) + 0.5) /
                         static_cast<double>(plan.size());
    values.push_back(curve(t));
  }
  EXPECT_GT(PearsonCorrelation(counts, values), 0.99);
}

TEST(DiscretizeTest, RejectsBadInputs) {
  EXPECT_THROW(DiscretizeRate(NormalCurve(1.0), 0, 10, 700.0),
               std::invalid_argument);
  EXPECT_THROW(DiscretizeRate(NormalCurve(1.0), Seconds(1), 10, 0.0),
               std::invalid_argument);
  RateFunction empty{[](double) { return 1.0; }, 2.0, 2.0, "empty"};
  EXPECT_THROW(DiscretizeRate(empty, Seconds(1), 10, 700.0),
               std::invalid_argument);
  RateFunction zero{[](double) { return 0.0; }, 0.0, 1.0, "zero"};
  EXPECT_THROW(DiscretizeRate(zero, Seconds(1), 10, 700.0),
               std::invalid_argument);
}

// ---------- Time-interval strategy (Fig. 10 c/d) ----------

TEST(TimeIntervalTest, DeliversEverythingAlongCurve) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimeIntervalDispatch strategy;
  strategy.rate = NormalCurve(1.0);
  strategy.interval = Minutes(1.0);
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  const std::size_t n = 2000;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  EXPECT_EQ(sink.deliveries.size(), n);
  // Bulk of a unit normal lands mid-interval, not at the edges.
  std::size_t middle = 0;
  for (const auto& [at, msg] : sink.deliveries) {
    if (at > Seconds(20) && at < Seconds(40)) ++middle;
  }
  EXPECT_GT(middle, n / 2);
}

TEST(TimeIntervalTest, EmptyShelfIsNoop) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimeIntervalDispatch strategy;
  strategy.rate = NormalCurve(1.0);
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  EXPECT_TRUE(sink.deliveries.empty());
}

TEST(TimeIntervalTest, DropoutPerSlot) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimeIntervalDispatch strategy;
  strategy.rate = SinPlusOne();
  strategy.interval = Seconds(30.0);
  strategy.failure_probability = 0.4;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink, 11).ok());
  const std::size_t n = 4000;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  EXPECT_NEAR(static_cast<double>(sink.deliveries.size()) / n, 0.6, 0.04);
}

// ---------- Isolation (Fig. 4: dispatchers do not interfere) ----------

TEST(IsolationTest, TasksDispatchIndependently) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint fast_sink, slow_sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{1}, 0.0},
                                 &fast_sink).ok());
  TimePointDispatch slow;
  slow.points = {{Minutes(60.0), true, 100, 0.0, 0}};
  ASSERT_TRUE(flow.ConfigureTask(TaskId(2), slow, &slow_sink).ok());

  for (std::uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(2), 1000 + i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(2), 0).ok());
  loop.RunUntil(Minutes(1.0));
  // Task 1 delivered everything immediately; task 2 still shelved.
  EXPECT_EQ(fast_sink.deliveries.size(), 50u);
  EXPECT_TRUE(slow_sink.deliveries.empty());
  loop.Run();
  EXPECT_EQ(slow_sink.deliveries.size(), 50u);
}

// ---------- Batched delivery equivalence ----------

/// Records tick boundaries in addition to every delivery (to check that
/// delivery really arrives one hook call per tick).
class BatchAwareEndpoint final : public CloudEndpoint {
 public:
  void DeliverTick(std::vector<Message> tick) override {
    batch_sizes.push_back(tick.size());
    for (const Message& message : tick) {
      deliveries.emplace_back(message.arrival, message.id);
    }
  }
  std::vector<std::pair<SimTime, MessageId>> deliveries;
  std::vector<std::size_t> batch_sizes;
};

/// A tick of `messages`, all stamped to arrive at `at`.
std::vector<Message> Tick(std::span<const Message> messages, SimTime at) {
  std::vector<Message> tick(messages.begin(), messages.end());
  for (Message& message : tick) message.arrival = at;
  return tick;
}

struct DispatchOutcome {
  std::vector<std::pair<SimTime, MessageId>> deliveries;
  std::vector<std::size_t> batch_sizes;
  DispatchStats stats;
  /// Golden digest of the deliveries (arrival, id) and the dispatch stats.
  std::uint64_t digest = 0;
};

/// Runs one Fig. 10 scenario (round of `n` messages, then round end) and
/// returns everything observable. `arm` sets the dispatcher's link plane
/// before the first message arrives.
DispatchOutcome RunScenario(
    const DispatchStrategy& strategy, std::size_t n, std::uint64_t seed,
    const std::function<void(Dispatcher&)>& arm = nullptr) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  BatchAwareEndpoint sink;
  EXPECT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink, seed).ok());
  if (arm) arm(*flow.FindDispatcher(TaskId(1)));
  EXPECT_TRUE(flow.OnRoundStart(TaskId(1), 0).ok());
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  EXPECT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  loop.Run();
  DispatchOutcome out;
  out.deliveries = sink.deliveries;
  out.batch_sizes = sink.batch_sizes;
  const auto& stats = flow.FindDispatcher(TaskId(1))->stats();
  out.stats = stats;
  golden::Digest digest;
  digest.Add(out.deliveries.size());
  for (const auto& [when, id] : out.deliveries) {
    digest.Add(when);
    digest.Add(id.value());
  }
  golden::AddDispatch(digest, stats);
  out.digest = digest.value();
  return out;
}

TEST(DeliveryEquivalenceTest, AllStrategiesBitIdenticalAcrossModes) {
  // Fig. 10 scenarios: time-point, time-interval, realtime-accumulated —
  // all with both dropout mechanisms in play so the RNG draw order is
  // genuinely exercised. Arrivals (time and message identity, in order),
  // drop decisions and tick stats must equal the golden digests the
  // retired per-message delivery mode produced.
  TimePointDispatch points;
  points.points = {{Seconds(5), true, 600, 0.1, 0},
                   {Seconds(20), true, 1400, 0.0, 25},
                   {Seconds(40), true, 1000, 0.05, 10}};
  TimeIntervalDispatch interval;
  interval.rate = NormalCurve(1.0);
  interval.interval = Minutes(1.0);
  interval.failure_probability = 0.2;
  const RealtimeAccumulated realtime{{20, 100, 50}, 0.15};

  const std::vector<std::pair<std::string, std::pair<DispatchStrategy,
                                                     std::size_t>>>
      scenarios = {{"flow.fig10_time_point", {points, 3000}},
                   {"flow.fig10_time_interval", {interval, 5000}},
                   {"flow.fig10_realtime", {realtime, 4000}}};
  for (const auto& [name, scenario] : scenarios) {
    const auto& [strategy, n] = scenario;
    const auto batched = RunScenario(strategy, n, 17);
    golden::ExpectGolden(name, batched.digest);
    EXPECT_GT(batched.stats.dropped, 0u) << name;
    // And delivery really fans in O(ticks): one hook call per non-empty
    // dispatch tick, carrying every message the tick sent.
    std::size_t nonempty_ticks = 0;
    std::size_t in_batches = 0;
    for (const auto& [when, count] : batched.stats.batches) {
      if (count > 0) ++nonempty_ticks;
    }
    for (const std::size_t size : batched.batch_sizes) in_batches += size;
    EXPECT_EQ(batched.batch_sizes.size(), nonempty_ticks) << name;
    EXPECT_EQ(in_batches, batched.stats.sent) << name;
  }
}

TEST(DeliveryEquivalenceTest, TickMixingEveryFateMatchesGolden) {
  // One finite-capacity time point whose tick meets every fate a message
  // can: the random-discard mask, the per-message transmission drop, a
  // device away at its first attempt, a transient link failure, retries
  // that deliver as one-update ticks, retries past the upload deadline,
  // and plain delivery at the capacity-spaced stamp. Arrivals (time and
  // message identity, in order) and the dispatch stats must equal the
  // golden digest captured from the dispatcher that still compacted the
  // discard survivors into a second buffer before its survivor loop.
  TimePointDispatch points;
  points.points = {{Seconds(5), true, 400, 0.1, 40}};
  LinkPolicy link;
  link.transient_failure_probability = 0.25;
  link.max_attempts = 3;
  link.backoff_initial = Seconds(1.0);
  link.upload_deadline = Seconds(2.2);
  const auto arm = [&link](Dispatcher& dispatcher) {
    dispatcher.set_link_policy(link);
    // Every fifth device is away until t = 6 s (its first retry finds it
    // back); every eleventh is away for good (a churn loss).
    dispatcher.set_availability([](DeviceId device, SimTime when) {
      if (device.value() % 11 == 0) return false;
      return device.value() % 5 != 0 || when >= Seconds(6.0);
    });
  };
  const auto out = RunScenario(points, 400, 23, arm);
  golden::ExpectGolden("flow.mixed_fate_tick", out.digest);
  const DispatchStats& stats = out.stats;
  EXPECT_EQ(stats.received, 400u);
  EXPECT_EQ(stats.sent + stats.dropped, 400u);
  EXPECT_EQ(stats.sent, out.deliveries.size());
  EXPECT_GT(stats.dropped, 40u);  // the mask plus transmission drops
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.retry_successes, 0u);
  EXPECT_GT(stats.deadline_drops, 0u);
  EXPECT_GT(stats.churn_losses, 0u);
  // The tick itself, then one single-update tick per retried delivery.
  ASSERT_EQ(stats.batches.size(), 1 + stats.retry_successes);
  EXPECT_EQ(stats.batches.front().first, Seconds(5));
  EXPECT_EQ(stats.batch_keys.front(), 0u);
  EXPECT_EQ(out.batch_sizes.size(), stats.batches.size());
}

// ---------- Dangling-callback regression (RemoveTask mid-interval) ----------

TEST(RemoveTaskTest, MidIntervalRemovalCancelsPendingStrategyEvents) {
  // OnRoundEnd schedules this-capturing lambdas; destroying the dispatcher
  // before they fire must cancel them (previously: use-after-free).
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimeIntervalDispatch strategy;
  strategy.rate = NormalCurve(1.0);
  strategy.interval = Minutes(1.0);
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  // Run partway into the interval, then remove the task with slot events
  // still pending.
  loop.RunUntil(Seconds(20.0));
  const std::size_t delivered_before = sink.deliveries.size();
  EXPECT_GT(delivered_before, 0u);
  ASSERT_TRUE(flow.RemoveTask(TaskId(1)).ok());
  loop.Run();  // must not touch the destroyed dispatcher (ASan-clean)
  // In-flight deliveries handed to the loop before removal may still land;
  // no *new* dispatch ticks may execute.
  EXPECT_GE(sink.deliveries.size(), delivered_before);
  EXPECT_LT(sink.deliveries.size(), 2000u);
}

TEST(RemoveTaskTest, TimePointRemovalBeforeAnyDispatch) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  TimePointDispatch strategy;
  strategy.points = {{Seconds(10), true, 5, 0.0, 0},
                     {Seconds(20), true, 5, 0.0, 0}};
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), strategy, &sink).ok());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  ASSERT_TRUE(flow.OnRoundEnd(TaskId(1), 0).ok());
  ASSERT_TRUE(flow.RemoveTask(TaskId(1)).ok());
  loop.Run();
  EXPECT_TRUE(sink.deliveries.empty());
}

// ---------- Batch-log cap ----------

TEST(DispatchStatsTest, BatchLogCapBoundsMemory) {
  sim::EventLoop loop;
  DeviceFlow flow(loop);
  RecordingEndpoint sink;
  ASSERT_TRUE(flow.ConfigureTask(TaskId(1), RealtimeAccumulated{{1}, 0.0},
                                 &sink).ok());
  auto* dispatcher = flow.FindDispatcher(TaskId(1));
  dispatcher->set_batch_log_cap(10);
  for (std::uint64_t i = 0; i < 37; ++i) {
    ASSERT_TRUE(flow.OnMessage(MakeMessage(TaskId(1), i)).ok());
  }
  loop.Run();
  EXPECT_EQ(sink.deliveries.size(), 37u);          // delivery unaffected
  EXPECT_EQ(dispatcher->stats().sent, 37u);        // counters unaffected
  EXPECT_EQ(dispatcher->stats().batches.size(), 10u);
  EXPECT_EQ(dispatcher->stats().batches_truncated, 27u);
}

// ---------- Message-keyed transmission dropout ----------

TEST(RealtimeTest, DropDecisionsInvariantToDispatcherPartition) {
  // Transmission-failure draws are keyed by (seed, task, message id), so
  // splitting one message stream across two same-seed dispatchers (the
  // shard topology) drops exactly the same message set as one dispatcher
  // seeing everything — the invariant behind shard-width determinism.
  const RealtimeAccumulated strategy{{1}, 0.4};
  const std::uint64_t seed = 21;
  const std::size_t n = 2000;

  auto delivered_ids = [&](std::span<const std::size_t> to_first) {
    sim::EventLoop loop;
    RecordingEndpoint sink_a, sink_b;
    Dispatcher a(loop, TaskId(1), strategy, &sink_a, seed);
    Dispatcher b(loop, TaskId(1), strategy, &sink_b, seed);
    std::set<std::uint64_t> in_first(to_first.begin(), to_first.end());
    for (std::uint64_t i = 0; i < n; ++i) {
      (in_first.contains(i) ? a : b).OnMessage(MakeMessage(TaskId(1), i));
    }
    loop.Run();
    std::set<std::uint64_t> delivered;
    for (const auto& [when, m] : sink_a.deliveries) delivered.insert(m.id.value());
    for (const auto& [when, m] : sink_b.deliveries) delivered.insert(m.id.value());
    return delivered;
  };

  std::vector<std::size_t> all(n), evens, none;
  std::iota(all.begin(), all.end(), 0u);
  for (std::size_t i = 0; i < n; i += 2) evens.push_back(i);

  const auto baseline = delivered_ids(all);   // everything through dispatcher a
  EXPECT_GT(baseline.size(), n / 2);          // ~60% survive
  EXPECT_LT(baseline.size(), n);              // some drops happened
  EXPECT_EQ(delivered_ids(evens), baseline);  // split half/half
  EXPECT_EQ(delivered_ids(none), baseline);   // everything through b
}

// ---------- ShardMerger ----------

TEST(ShardMergerTest, MergesTicksInTimeThenGlobalIdOrder) {
  sim::EventLoop cloud;
  BatchAwareEndpoint sink;
  ShardMerger merger(3, &sink, &cloud);

  // Shard 2 ticks first in time; shards 0 and 1 collide at t=5s where the
  // lower first-message id must win (here that is also the lower shard —
  // ids are device-ordered); per-shard FIFO must hold within shard 0.
  const std::vector<Message> m = {
      MakeMessage(TaskId(1), 0), MakeMessage(TaskId(1), 1),
      MakeMessage(TaskId(1), 2), MakeMessage(TaskId(1), 3),
      MakeMessage(TaskId(1), 4)};
  merger.channel(2).DeliverTick(Tick(std::span(&m[4], 1), Seconds(1.0)));
  merger.channel(0).DeliverTick(Tick(std::span(&m[0], 2), Seconds(5.0)));
  merger.channel(1).DeliverTick(Tick(std::span(&m[3], 1), Seconds(5.0)));
  merger.channel(0).DeliverTick(Tick(std::span(&m[2], 1), Seconds(6.0)));

  EXPECT_EQ(merger.NextTickTime(), Seconds(1.0));
  // Partial drain respects the horizon.
  EXPECT_EQ(merger.DrainUpTo(Seconds(2.0)), 1u);
  EXPECT_EQ(cloud.Now(), Seconds(1.0));  // clock mirrored to tick time
  EXPECT_EQ(merger.DrainUpTo(Seconds(100.0)), 3u);
  EXPECT_TRUE(merger.channel(0).empty());

  std::vector<std::uint64_t> order;
  for (const auto& [when, id] : sink.deliveries) order.push_back(id.value());
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 0, 1, 3, 2}));
  EXPECT_EQ(sink.batch_sizes, (std::vector<std::size_t>{1, 2, 1, 1}));
  EXPECT_EQ(merger.ticks_merged(), 4u);
  EXPECT_EQ(merger.messages_merged(), 5u);
  EXPECT_EQ(merger.NextTickTime(), sim::EventLoop::kNoEvent);
}

TEST(ShardMergerTest, EqualTimesResolveByMessageIdNotShard) {
  BatchAwareEndpoint sink;
  ShardMerger merger(2, &sink, nullptr);
  const std::vector<Message> m = {MakeMessage(TaskId(1), 7),
                                  MakeMessage(TaskId(1), 8)};
  const SimTime at = Seconds(2.0);
  merger.channel(1).DeliverTick(Tick(std::span(&m[0], 1), at));
  merger.channel(0).DeliverTick(Tick(std::span(&m[1], 1), at));
  EXPECT_EQ(merger.DrainUpTo(Seconds(2.0)), 2u);
  ASSERT_EQ(sink.deliveries.size(), 2u);
  // Equal times resolve by message id (the global scheduling order), not
  // by shard index — id 7 sits in the higher shard but goes first.
  EXPECT_EQ(sink.deliveries[0].second, MessageId(7));
  EXPECT_EQ(sink.deliveries[1].second, MessageId(8));
}

TEST(ShardMergerTest, RejectsBadConstruction) {
  BatchAwareEndpoint sink;
  EXPECT_THROW(ShardMerger(0, &sink), std::invalid_argument);
  EXPECT_THROW(ShardMerger(2, nullptr), std::invalid_argument);
}

// ---------- Rate-function library ----------

TEST(RateFunctionTest, LibraryShapes) {
  EXPECT_NEAR(NormalCurve(1.0)(0.0), 1.0, 1e-12);
  EXPECT_NEAR(NormalCurve(2.0)(2.0), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(SinPlusOne()(M_PI / 2.0), 2.0, 1e-12);
  EXPECT_NEAR(CosPlusOne()(M_PI), 0.0, 1e-12);
  EXPECT_NEAR(TwoPowT()(3.0), 8.0, 1e-12);
  EXPECT_NEAR(TenPowT()(2.0), 100.0, 1e-9);
  EXPECT_GT(RightTailedNormal(1.0).domain_hi, 3.9);
  // All Table II functions are non-negative on their domains.
  for (const auto& fn :
       {NormalCurve(1.0), NormalCurve(2.0), SinPlusOne(), CosPlusOne(),
        TwoPowT(), TenPowT(), DiurnalCurve()}) {
    for (int i = 0; i <= 100; ++i) {
      const double t = fn.domain_lo + fn.domain_width() * i / 100.0;
      EXPECT_GE(fn(t), 0.0) << fn.name << " at t=" << t;
    }
  }
}

}  // namespace
}  // namespace simdc::flow
