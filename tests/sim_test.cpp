// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "sim/event_loop.h"
#include "sim/lockstep.h"

namespace simdc::sim {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Seconds(3.0), [&] { order.push_back(3); });
  loop.ScheduleAt(Seconds(1.0), [&] { order.push_back(1); });
  loop.ScheduleAt(Seconds(2.0), [&] { order.push_back(2); });
  EXPECT_EQ(loop.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), Seconds(3.0));
}

TEST(EventLoopTest, EqualTimestampsAreFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(Seconds(1.0), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, ClockAdvancesToEventTime) {
  EventLoop loop;
  SimTime observed = -1;
  loop.ScheduleAt(Millis(250), [&] { observed = loop.Now(); });
  loop.Run();
  EXPECT_EQ(observed, Millis(250));
}

TEST(EventLoopTest, PastEventsClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(Seconds(5.0), [] {});
  loop.Run();
  SimTime when = -1;
  loop.ScheduleAt(Seconds(1.0), [&] { when = loop.Now(); });  // in the past
  loop.Run();
  EXPECT_EQ(when, Seconds(5.0));  // clamped, time never goes backward
}

TEST(EventLoopTest, ScheduleAfterIsRelative) {
  EventLoop loop;
  loop.ScheduleAt(Seconds(2.0), [] {});
  loop.Run();
  SimTime when = 0;
  loop.ScheduleAfter(Seconds(3.0), [&] { when = loop.Now(); });
  loop.Run();
  EXPECT_EQ(when, Seconds(5.0));
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.ScheduleAfter(Seconds(1.0), recurse);
  };
  loop.ScheduleAt(0, recurse);
  loop.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.Now(), Seconds(4.0));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  const EventHandle handle = loop.ScheduleAt(Seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(loop.Cancel(handle));
  loop.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, CancelInvalidHandleFails) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(0));
  EXPECT_FALSE(loop.Cancel(9999));
}

TEST(EventLoopTest, MassCancellationKeepsBookkeepingExact) {
  // Heavy-cancellation path (stall guards, timer stops): cancel half of a
  // large batch and check pending()/processed() stay exact throughout.
  EventLoop loop;
  constexpr std::size_t kEvents = 2000;
  std::size_t fired = 0;
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    handles.push_back(
        loop.ScheduleAt(static_cast<SimTime>(i), [&fired] { ++fired; }));
  }
  EXPECT_EQ(loop.pending(), kEvents);

  for (std::size_t i = 0; i < kEvents; i += 2) {
    EXPECT_TRUE(loop.Cancel(handles[i]));
    EXPECT_FALSE(loop.Cancel(handles[i]));  // double-cancel is rejected
  }
  EXPECT_EQ(loop.pending(), kEvents / 2);
  EXPECT_FALSE(loop.empty());

  EXPECT_EQ(loop.Run(), kEvents / 2);
  EXPECT_EQ(fired, kEvents / 2);
  EXPECT_EQ(loop.processed(), kEvents / 2);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, CancelAfterFireFails) {
  EventLoop loop;
  const EventHandle handle = loop.ScheduleAt(Seconds(1.0), [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(handle));
  // A stale cancel must not corrupt bookkeeping for later events.
  loop.ScheduleAt(Seconds(2.0), [] {});
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(loop.processed(), 2u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, CancelledEventsNeverRunViaRunUntilOrStep) {
  EventLoop loop;
  int fired = 0;
  const EventHandle a = loop.ScheduleAt(Seconds(1.0), [&] { ++fired; });
  loop.ScheduleAt(Seconds(2.0), [&] { ++fired; });
  const EventHandle c = loop.ScheduleAt(Seconds(3.0), [&] { ++fired; });
  EXPECT_TRUE(loop.Cancel(a));
  EXPECT_EQ(loop.RunUntil(Seconds(1.5)), 0u);  // a was tombstoned
  EXPECT_TRUE(loop.Cancel(c));
  EXPECT_TRUE(loop.Step());  // runs b
  EXPECT_FALSE(loop.Step()); // c tombstoned, nothing left
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.processed(), 1u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, RunUntilExecutesOnlyDueEvents) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(Seconds(1.0), [&] { ++count; });
  loop.ScheduleAt(Seconds(2.0), [&] { ++count; });
  loop.ScheduleAt(Seconds(10.0), [&] { ++count; });
  EXPECT_EQ(loop.RunUntil(Seconds(5.0)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.Now(), Seconds(5.0));
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoopTest, RunUntilAdvancesClockEvenWithoutEvents) {
  EventLoop loop;
  EXPECT_EQ(loop.RunUntil(Seconds(7.0)), 0u);
  EXPECT_EQ(loop.Now(), Seconds(7.0));
}

TEST(EventLoopTest, StepExecutesOne) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(1, [&] { ++count; });
  loop.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.Step());
}

TEST(EventLoopTest, ProcessedCountAccumulates) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.ScheduleAt(i, [] {});
  loop.Run();
  EXPECT_EQ(loop.processed(), 7u);
}

TEST(ScheduleBulkTest, ExecutesInTimeOrderRegardlessOfInsertOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<TimedEvent> events;
  for (int i : {3, 1, 4, 1, 5, 9, 2, 6}) {
    events.push_back({Seconds(i), [&order, i] { order.push_back(i); }});
  }
  const auto handles = loop.ScheduleBulk(std::move(events));
  EXPECT_EQ(handles.size(), 8u);
  EXPECT_EQ(loop.pending(), 8u);
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 3, 4, 5, 6, 9}));
}

TEST(ScheduleBulkTest, MatchesSequentialScheduleAtExactly) {
  // Bulk insertion must be observationally identical to N ScheduleAt calls:
  // same execution order, including FIFO ties, interleaved with singly
  // scheduled events.
  auto run = [](bool bulk) {
    EventLoop loop;
    std::vector<int> order;
    loop.ScheduleAt(Seconds(2.0), [&order] { order.push_back(-1); });
    std::vector<TimedEvent> events;
    for (int i = 0; i < 50; ++i) {
      const SimTime t = Seconds((i * 7) % 10);  // many ties
      auto fn = [&order, i] { order.push_back(i); };
      if (bulk) {
        events.push_back({t, std::move(fn)});
      } else {
        loop.ScheduleAt(t, std::move(fn));
      }
    }
    if (bulk) loop.ScheduleBulk(std::move(events));
    loop.ScheduleAt(Seconds(5.0), [&order] { order.push_back(-2); });
    loop.Run();
    return order;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(ScheduleBulkTest, HandlesAreCancellable) {
  EventLoop loop;
  int fired = 0;
  std::vector<TimedEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back({Seconds(1.0 + i), [&fired] { ++fired; }});
  }
  const auto handles = loop.ScheduleBulk(std::move(events));
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    EXPECT_TRUE(loop.Cancel(handles[i]));
  }
  loop.Run();
  EXPECT_EQ(fired, 5);
}

TEST(ScheduleBulkTest, EmptyBulkIsNoop) {
  EventLoop loop;
  EXPECT_TRUE(loop.ScheduleBulk({}).empty());
  EXPECT_TRUE(loop.empty());
}

TEST(ScheduleBulkTest, PastTimesClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(Seconds(5.0), [] {});
  loop.Run();
  SimTime when = -1;
  std::vector<TimedEvent> events;
  events.push_back({Seconds(1.0), [&] { when = loop.Now(); }});
  loop.ScheduleBulk(std::move(events));
  loop.Run();
  EXPECT_EQ(when, Seconds(5.0));
}

TEST(EventLoopTest, IsPendingTracksLifecycle) {
  EventLoop loop;
  const EventHandle a = loop.ScheduleAt(Seconds(1.0), [] {});
  const EventHandle b = loop.ScheduleAt(Seconds(2.0), [] {});
  EXPECT_TRUE(loop.IsPending(a));
  EXPECT_TRUE(loop.IsPending(b));
  EXPECT_TRUE(loop.Cancel(a));
  EXPECT_FALSE(loop.IsPending(a));
  loop.Run();
  EXPECT_FALSE(loop.IsPending(b));  // fired
  EXPECT_FALSE(loop.IsPending(9999));
}

// ---------- NextEventTime ----------

TEST(EventLoopTest, NextEventTimeSkipsCancelled) {
  EventLoop loop;
  const auto early = loop.ScheduleAt(Seconds(1.0), [] {});
  loop.ScheduleAt(Seconds(2.0), [] {});
  EXPECT_EQ(loop.NextEventTime(), Seconds(1.0));
  ASSERT_TRUE(loop.Cancel(early));
  EXPECT_EQ(loop.NextEventTime(), Seconds(2.0));
  loop.Run();
  EXPECT_EQ(loop.NextEventTime(), EventLoop::kNoEvent);
}

TEST(EventLoopTest, NextEventTimePruningKeepsCancelExact) {
  EventLoop loop;
  const auto a = loop.ScheduleAt(Seconds(1.0), [] {});
  loop.ScheduleAt(Seconds(5.0), [] {});
  ASSERT_TRUE(loop.Cancel(a));
  EXPECT_EQ(loop.NextEventTime(), Seconds(5.0));  // prunes a's tombstone
  EXPECT_FALSE(loop.Cancel(a));                   // still reports cancelled
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.Run(), 1u);
}

// ---------- LockstepGroup ----------

namespace {

/// Captures (time, shard, tag) per executed event plus a per-shard buffer
/// the drain hook merges in (time, shard) order — the same discipline the
/// flow::ShardMerger applies to message batches.
struct LockstepHarness {
  EventLoop cloud;
  std::vector<std::unique_ptr<EventLoop>> shards;
  std::vector<std::vector<std::pair<SimTime, int>>> buffered;
  std::vector<std::pair<SimTime, std::string>> merged;

  explicit LockstepHarness(std::size_t n) : buffered(n) {
    for (std::size_t s = 0; s < n; ++s) {
      shards.push_back(std::make_unique<EventLoop>());
    }
  }

  SimTime NextPending() const {
    SimTime t = EventLoop::kNoEvent;
    for (const auto& queue : buffered) {
      if (!queue.empty()) t = std::min(t, queue.front().first);
    }
    return t;
  }

  void Drain(SimTime horizon) {
    for (;;) {
      SimTime best = EventLoop::kNoEvent;
      std::size_t shard = 0;
      for (std::size_t s = 0; s < buffered.size(); ++s) {
        if (!buffered[s].empty() && buffered[s].front().first < best) {
          best = buffered[s].front().first;
          shard = s;
        }
      }
      if (best == EventLoop::kNoEvent || best > horizon) return;
      merged.emplace_back(best, "shard" + std::to_string(shard) + ":" +
                                    std::to_string(buffered[shard].front().second));
      buffered[shard].erase(buffered[shard].begin());
    }
  }

  LockstepGroup::Hooks Hooks() {
    return {.shard_loops =
                [this](std::vector<EventLoop*>& out) {
                  for (auto& shard : shards) out.push_back(shard.get());
                },
            .next_pending = [this] { return NextPending(); },
            .drain = [this](SimTime h) { Drain(h); }};
  }
};

}  // namespace

TEST(LockstepGroupTest, MergesShardProductsInTimeThenShardOrder) {
  LockstepHarness h(3);
  // Shard events at interleaved times, one colliding timestamp across all
  // three shards: the merge must order the collision by shard index.
  for (int s = 0; s < 3; ++s) {
    h.shards[static_cast<std::size_t>(s)]->ScheduleAt(
        Seconds(5.0), [&h, s] {
          h.buffered[static_cast<std::size_t>(s)].emplace_back(Seconds(5.0), s);
        });
    h.shards[static_cast<std::size_t>(s)]->ScheduleAt(
        Seconds(1.0 + s), [&h, s] {
          h.buffered[static_cast<std::size_t>(s)].emplace_back(
              Seconds(1.0 + s), 10 + s);
        });
  }
  LockstepGroup group(h.cloud);
  group.Run(h.Hooks(), /*feedback_guard=*/Seconds(100.0));
  std::vector<std::string> got;
  for (const auto& [time, tag] : h.merged) got.push_back(tag);
  EXPECT_EQ(got, (std::vector<std::string>{"shard0:10", "shard1:11",
                                           "shard2:12", "shard0:0", "shard1:1",
                                           "shard2:2"}));
}

TEST(LockstepGroupTest, CloudEventsRunBeforeShardWindow) {
  // A cloud event between two shard events must observe exactly the
  // products buffered before its timestamp — the horizon may not let a
  // shard run past the cloud plane.
  LockstepHarness h(2);
  std::size_t seen_at_cloud = 0;
  h.shards[0]->ScheduleAt(Seconds(1.0), [&h] {
    h.buffered[0].emplace_back(Seconds(1.0), 1);
  });
  h.shards[1]->ScheduleAt(Seconds(30.0), [&h] {
    h.buffered[1].emplace_back(Seconds(30.0), 2);
  });
  h.cloud.ScheduleAt(Seconds(20.0), [&] { seen_at_cloud = h.merged.size(); });
  LockstepGroup group(h.cloud);
  // Large guard: without the cloud-bound on the horizon shard 1 would run
  // (and merge) its t=30 event before the t=20 cloud event.
  group.Run(h.Hooks(), Seconds(1000.0));
  EXPECT_EQ(seen_at_cloud, 1u);
  EXPECT_EQ(h.merged.size(), 2u);
}

TEST(LockstepGroupTest, DrainFeedbackSchedulesWithinGuard) {
  // Delivery feedback (drain scheduling new shard events at item time +
  // guard) must always land at-or-after every shard clock.
  LockstepHarness h(2);
  const SimDuration guard = Seconds(2.0);
  std::vector<SimTime> fired;
  h.shards[0]->ScheduleAt(Seconds(1.0), [&h] {
    h.buffered[0].emplace_back(Seconds(1.0), 1);
  });
  // Dense far-side events keep shard 1 busy across the guard windows.
  for (int i = 0; i < 8; ++i) {
    h.shards[1]->ScheduleAt(Seconds(0.5 + i), [&fired, &h] {
      fired.push_back(h.shards[1]->Now());
    });
  }
  bool scheduled_feedback = false;
  auto hooks = h.Hooks();
  hooks.drain = [&](SimTime horizon) {
    const bool had = h.NextPending() <= horizon;
    h.Drain(horizon);
    if (had && !scheduled_feedback) {
      scheduled_feedback = true;
      // Feedback exactly at the guard bound: legal, must not clamp.
      const SimTime when = Seconds(1.0) + guard;
      h.shards[0]->ScheduleAt(when, [&fired, &h] {
        fired.push_back(h.shards[0]->Now());
      });
    }
  };
  LockstepGroup group(h.cloud);
  group.Run(hooks, guard);
  ASSERT_TRUE(scheduled_feedback);
  // The feedback event ran at its exact timestamp (no clamping forward).
  EXPECT_NE(std::find(fired.begin(), fired.end(), Seconds(3.0)), fired.end());
}

TEST(LockstepGroupTest, PoolAndSequentialAdvanceAreIdentical) {
  auto run = [](ThreadPool* pool) {
    LockstepHarness h(4);
    for (std::size_t s = 0; s < 4; ++s) {
      for (int i = 0; i < 50; ++i) {
        const SimTime when = Seconds(0.1 * static_cast<double>(i) +
                                     0.01 * static_cast<double>(s));
        h.shards[s]->ScheduleAt(when, [&h, s, when, i] {
          h.buffered[s].emplace_back(when, i);
        });
      }
    }
    LockstepGroup group(h.cloud, pool);
    group.Run(h.Hooks(), Seconds(1.0));
    return h.merged;
  };
  ThreadPool pool(4);
  const auto sequential = run(nullptr);
  const auto parallel = run(&pool);
  ASSERT_EQ(sequential.size(), 200u);
  EXPECT_EQ(sequential, parallel);
}

TEST(LockstepGroupTest, ShardLoopAddedByCloudEventJoinsAtNextBarrier) {
  // Membership is read once per barrier, BEFORE the cloud step: a loop a
  // cloud event adds at T0 sits out that barrier's shard advance and is
  // first advanced at the next one — at its own event's exact time.
  LockstepHarness h(0);
  std::size_t barriers = 0;
  std::size_t joined_at_barrier = 0;
  SimTime ran_at = -1;
  h.cloud.ScheduleAt(Seconds(1.0), [&h, &joined_at_barrier, &barriers,
                                    &ran_at] {
    h.shards.push_back(std::make_unique<EventLoop>());
    h.buffered.emplace_back();
    EventLoop* added = h.shards.back().get();
    added->ScheduleAt(Seconds(1.0), [&, added] {
      joined_at_barrier = barriers;
      ran_at = added->Now();
    });
  });
  auto hooks = h.Hooks();
  hooks.drain = [&](SimTime horizon) {
    h.Drain(horizon);
    ++barriers;
  };
  LockstepGroup group(h.cloud);
  EXPECT_EQ(group.Run(hooks, Seconds(10.0)), 2u);
  EXPECT_EQ(joined_at_barrier, 1u);  // not advanced in barrier 0
  EXPECT_EQ(ran_at, Seconds(1.0));
}

TEST(LockstepGroupTest, ZeroShardGroupMatchesEventLoopRun) {
  // With no shard loops the group steps the cloud loop alone: same events,
  // same order (ties FIFO, same-time and clamped-past reschedules, a
  // cancellation), same processed() and clock as EventLoop::Run().
  auto seed = [](EventLoop& loop, std::vector<std::string>& log) {
    loop.ScheduleAt(Seconds(5.0), [&log] { log.push_back("a@5"); });
    loop.ScheduleAt(Seconds(1.0), [&log] { log.push_back("b@1"); });
    loop.ScheduleAt(Seconds(1.0), [&log] { log.push_back("c@1"); });
    const EventHandle dropped =
        loop.ScheduleAt(Seconds(3.0), [&log] { log.push_back("cancelled"); });
    loop.ScheduleAt(Seconds(2.0), [&loop, &log] {
      log.push_back("d@2");
      loop.ScheduleAt(Seconds(2.0), [&log] { log.push_back("e@2"); });
      loop.ScheduleAt(Seconds(0.5), [&log] { log.push_back("f@past"); });
      loop.ScheduleAt(Seconds(4.0), [&log] { log.push_back("g@4"); });
    });
    loop.ScheduleAt(Seconds(2.0), [&log] { log.push_back("h@2"); });
    loop.Cancel(dropped);
  };
  EventLoop reference;
  std::vector<std::string> expected;
  seed(reference, expected);
  const std::size_t ran = reference.Run();

  for (const bool with_hooks : {false, true}) {
    EventLoop cloud;
    std::vector<std::string> got;
    seed(cloud, got);
    LockstepGroup::Hooks hooks;
    std::size_t drains = 0;
    if (with_hooks) {
      hooks.shard_loops = [](std::vector<EventLoop*>&) {};
      hooks.next_pending = [] { return EventLoop::kNoEvent; };
      hooks.drain = [&drains](SimTime) { ++drains; };
    }
    LockstepGroup group(cloud);
    EXPECT_EQ(group.Run(hooks, Seconds(1.0)), ran);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(cloud.processed(), reference.processed());
    EXPECT_EQ(cloud.Now(), reference.Now());
    if (with_hooks) {
      EXPECT_GT(drains, 0u);
    }
  }
  EXPECT_EQ(expected, (std::vector<std::string>{"b@1", "c@1", "d@2", "h@2",
                                                "e@2", "f@past", "g@4",
                                                "a@5"}));
}

TEST(LockstepGroupTest, RejectsNullOrCloudShardLoopFromHook) {
  EventLoop cloud;
  cloud.ScheduleAt(Seconds(1.0), [] {});
  LockstepGroup group(cloud);
  LockstepGroup::Hooks hooks;
  hooks.shard_loops = [](std::vector<EventLoop*>& out) {
    out.push_back(nullptr);
  };
  EXPECT_THROW(group.Run(hooks, Seconds(1.0)), std::invalid_argument);
  hooks.shard_loops = [&cloud](std::vector<EventLoop*>& out) {
    out.push_back(&cloud);
  };
  EXPECT_THROW(group.Run(hooks, Seconds(1.0)), std::invalid_argument);
  EXPECT_EQ(cloud.processed(), 0u);  // rejected before the cloud step
}

}  // namespace
}  // namespace simdc::sim
