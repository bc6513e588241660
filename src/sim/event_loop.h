// Discrete-event simulation engine.
//
// Every timed experiment in the paper (DeviceFlow dispatch schedules,
// sample-threshold / scheduled aggregation windows, phone stage timings,
// cluster-scale round times) runs on this engine: events execute in
// timestamp order on a virtual clock, so a "20-minute aggregation window"
// finishes in milliseconds of wall time and is bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/clock.h"

namespace simdc::sim {

/// Handle used to cancel a scheduled event.
using EventHandle = std::uint64_t;

/// One entry of a bulk insertion (see EventLoop::ScheduleBulk).
struct TimedEvent {
  SimTime time = 0;
  std::function<void()> fn;
};

/// Single-threaded discrete-event loop over a virtual clock.
///
/// Ties (equal timestamps) execute in scheduling order, which makes runs
/// deterministic regardless of callback content.
class EventLoop {
 public:
  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  SimTime Now() const { return clock_.Now(); }
  const ManualClock& clock() const { return clock_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to Now()).
  EventHandle ScheduleAt(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after `delay` from the current virtual time.
  EventHandle ScheduleAfter(SimDuration delay, std::function<void()> fn) {
    return ScheduleAt(Now() + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// Inserts N events with one heap rebuild — O(N + H) instead of the
  /// O(N log H) of N ScheduleAt calls (H = events already pending). Entry
  /// order determines FIFO tie-breaking among equal timestamps, exactly as
  /// if each entry had been passed to ScheduleAt in sequence; times in the
  /// past are clamped to Now(). Returns one cancellable handle per entry.
  std::vector<EventHandle> ScheduleBulk(std::vector<TimedEvent> events);

  /// Cancels a pending event. Returns false if already fired or unknown.
  bool Cancel(EventHandle handle);

  /// True while `handle` is scheduled but neither fired nor cancelled.
  bool IsPending(EventHandle handle) const {
    return pending_handles_.contains(handle);
  }

  /// Timestamp of the earliest pending (non-cancelled) event, or
  /// `kNoEvent` when the loop is empty. Pops cancelled heap tops as a
  /// side effect, so repeated peeks stay O(1) amortized.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();
  SimTime NextEventTime();

  /// Advances the clock to `t` without running anything (no-op when `t` is
  /// not ahead of Now()). The recovery path uses this to re-anchor a fresh
  /// loop at a checkpoint's virtual time before any event is scheduled, so
  /// ScheduleAt clamping and FIFO tie-breaks behave exactly as they did in
  /// the original run. Calling it with events pending earlier than `t`
  /// would silently reorder them, so that is a precondition violation.
  void FastForwardTo(SimTime t);

  /// Runs until no events remain. Returns number of events executed.
  std::size_t Run();

  /// Runs events with timestamp <= `t`, then advances the clock to `t`.
  std::size_t RunUntil(SimTime t);

  /// Executes exactly one event if any is pending. Returns true if one ran.
  bool Step();

  bool empty() const { return pending_handles_.empty(); }
  std::size_t pending() const { return pending_handles_.size(); }
  std::size_t processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
    EventHandle handle;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  ManualClock clock_;
  /// Binary min-heap on (time, seq) managed with std::push_heap/pop_heap —
  /// an explicit vector (rather than std::priority_queue) so ScheduleBulk
  /// can append N events and restore the invariant with one make_heap.
  std::vector<Event> heap_;
  /// Handles scheduled but not yet fired or cancelled. Membership makes
  /// Cancel() exact (false for fired/unknown handles) and O(1), doubles
  /// as the pending()/empty() bookkeeping, and marks tombstones: a heap
  /// entry whose handle is not pending was cancelled. Handles are never
  /// reused, so the mark is exact.
  std::unordered_set<EventHandle> pending_handles_;
  std::uint64_t next_seq_ = 0;
  EventHandle next_handle_ = 1;
  std::size_t processed_ = 0;
};

}  // namespace simdc::sim
