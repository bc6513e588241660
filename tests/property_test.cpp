// Cross-cutting property tests: randomized sweeps over strategies and
// allocations asserting the system's invariants rather than specific
// values.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flow/device_flow.h"
#include "flow/rate_functions.h"
#include "sched/allocation.h"
#include "sim/event_loop.h"

namespace simdc {
namespace {

// ---------- DeviceFlow conservation ----------
//
// Invariant: for any strategy and any dropout setting,
//   received == delivered + dropped + still-shelved,
// and deliveries never decrease in time.

class CountingEndpoint final : public flow::CloudEndpoint {
 public:
  void DeliverTick(std::vector<flow::Message> tick) override {
    for (const flow::Message& message : tick) {
      EXPECT_GE(message.arrival, last_arrival_);
      last_arrival_ = message.arrival;
      ++delivered_;
    }
  }
  std::size_t delivered() const { return delivered_; }

 private:
  std::size_t delivered_ = 0;
  SimTime last_arrival_ = 0;
};

flow::DispatchStrategy RandomStrategy(Rng& rng) {
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      flow::RealtimeAccumulated realtime;
      const std::size_t cycle = 1 + static_cast<std::size_t>(rng.UniformInt(0, 2));
      realtime.thresholds.clear();
      for (std::size_t i = 0; i < cycle; ++i) {
        realtime.thresholds.push_back(
            static_cast<std::size_t>(rng.UniformInt(1, 40)));
      }
      realtime.failure_probability = rng.Uniform(0.0, 0.5);
      return realtime;
    }
    case 1: {
      flow::TimePointDispatch points;
      const std::size_t n = 1 + static_cast<std::size_t>(rng.UniformInt(0, 3));
      SimTime when = 0;
      for (std::size_t i = 0; i < n; ++i) {
        flow::TimePoint point;
        when += Seconds(rng.Uniform(1.0, 20.0));
        point.when = when;
        point.count = static_cast<std::size_t>(rng.UniformInt(1, 400));
        point.failure_probability = rng.Uniform(0.0, 0.4);
        point.random_discard = static_cast<std::size_t>(rng.UniformInt(0, 5));
        points.points.push_back(point);
      }
      return points;
    }
    default: {
      flow::TimeIntervalDispatch interval;
      interval.rate = rng.Bernoulli(0.5)
                          ? flow::NormalCurve(rng.Uniform(0.5, 2.5))
                          : flow::SinPlusOne();
      interval.interval = Seconds(rng.Uniform(10.0, 90.0));
      interval.failure_probability = rng.Uniform(0.0, 0.4);
      return interval;
    }
  }
}

class FlowConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowConservationTest, ReceivedEqualsDeliveredPlusDroppedPlusShelved) {
  Rng rng(GetParam());
  sim::EventLoop loop;
  flow::DeviceFlow device_flow(loop);
  CountingEndpoint endpoint;
  ASSERT_TRUE(device_flow
                  .ConfigureTask(TaskId(1), RandomStrategy(rng), &endpoint,
                                 GetParam())
                  .ok());
  const std::size_t messages =
      static_cast<std::size_t>(rng.UniformInt(1, 800));
  const std::size_t rounds = 1 + static_cast<std::size_t>(rng.UniformInt(0, 2));
  std::uint64_t next_id = 1;
  for (std::size_t round = 0; round < rounds; ++round) {
    ASSERT_TRUE(device_flow.OnRoundStart(TaskId(1), round).ok());
    for (std::size_t i = 0; i < messages; ++i) {
      flow::Message m;
      m.id = MessageId(next_id++);
      m.task = TaskId(1);
      m.round = round;
      ASSERT_TRUE(device_flow.OnMessage(std::move(m)).ok());
    }
    ASSERT_TRUE(device_flow.OnRoundEnd(TaskId(1), round).ok());
    loop.Run();
  }
  const auto* dispatcher = device_flow.FindDispatcher(TaskId(1));
  ASSERT_NE(dispatcher, nullptr);
  const auto& stats = dispatcher->stats();
  EXPECT_EQ(stats.received, rounds * messages);
  EXPECT_EQ(stats.received,
            stats.sent + stats.dropped + dispatcher->shelf().size());
  EXPECT_EQ(endpoint.delivered(), stats.sent);
  // Batch bookkeeping sums to sent.
  std::size_t batched = 0;
  for (const auto& [when, count] : stats.batches) batched += count;
  EXPECT_EQ(batched, stats.sent);
}

INSTANTIATE_TEST_SUITE_P(RandomStrategies, FlowConservationTest,
                         ::testing::Range<std::uint64_t>(0, 30));

// ---------- Allocation monotonicity ----------
//
// Invariant: adding resources (bundles or phones) never increases the
// optimal makespan; adding devices never decreases it.

class AllocationMonotonicityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocationMonotonicityTest, MoreResourcesNeverHurt) {
  Rng rng(GetParam());
  sched::GradeAllocationInput g;
  g.total_devices = static_cast<std::size_t>(rng.UniformInt(5, 200));
  g.benchmarking = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(g.total_devices) / 4));
  g.bundles_per_device = static_cast<std::size_t>(rng.UniformInt(1, 8));
  g.logical_bundles = static_cast<std::size_t>(rng.UniformInt(1, 80));
  g.phones = static_cast<std::size_t>(rng.UniformInt(1, 12));
  g.alpha_s = rng.Uniform(0.5, 6.0);
  g.beta_s = rng.Uniform(0.5, 6.0);
  g.lambda_s = rng.Uniform(0.0, 25.0);

  const auto base = sched::SolveHybridAllocation({g});
  ASSERT_TRUE(base.ok());

  auto more_bundles = g;
  more_bundles.logical_bundles += g.bundles_per_device * 4;
  const auto with_bundles = sched::SolveHybridAllocation({more_bundles});
  ASSERT_TRUE(with_bundles.ok());
  EXPECT_LE(with_bundles->total_seconds, base->total_seconds + 1e-9);

  auto more_phones = g;
  more_phones.phones += 4;
  const auto with_phones = sched::SolveHybridAllocation({more_phones});
  ASSERT_TRUE(with_phones.ok());
  EXPECT_LE(with_phones->total_seconds, base->total_seconds + 1e-9);

  auto more_devices = g;
  more_devices.total_devices += 50;
  const auto with_devices = sched::SolveHybridAllocation({more_devices});
  ASSERT_TRUE(with_devices.ok());
  EXPECT_GE(with_devices->total_seconds, base->total_seconds - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGrades, AllocationMonotonicityTest,
                         ::testing::Range<std::uint64_t>(100, 130));

// ---------- Event-loop stress ----------

TEST(EventLoopStressTest, RandomScheduleCancelInterleaving) {
  Rng rng(7);
  sim::EventLoop loop;
  std::size_t fired = 0;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 5000; ++i) {
    handles.push_back(loop.ScheduleAt(
        Seconds(rng.Uniform(0.0, 100.0)), [&fired] { ++fired; }));
  }
  // Cancel a random 20%.
  std::size_t cancelled = 0;
  for (const auto handle : handles) {
    if (rng.Bernoulli(0.2) && loop.Cancel(handle)) ++cancelled;
  }
  loop.Run();
  EXPECT_EQ(fired, 5000 - cancelled);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopStressTest, NestedSchedulingKeepsOrder) {
  sim::EventLoop loop;
  std::vector<SimTime> fire_times;
  Rng rng(9);
  std::function<void(int)> spawn = [&](int depth) {
    fire_times.push_back(loop.Now());
    if (depth > 0) {
      for (int i = 0; i < 2; ++i) {
        loop.ScheduleAfter(Seconds(rng.Uniform(0.1, 5.0)),
                           [&spawn, depth] { spawn(depth - 1); });
      }
    }
  };
  loop.ScheduleAt(0, [&spawn] { spawn(6); });
  loop.Run();
  EXPECT_EQ(fire_times.size(), 127u);  // 2^7 - 1 nodes
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_GE(fire_times[i], fire_times[i - 1]);
  }
}

}  // namespace
}  // namespace simdc
