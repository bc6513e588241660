#include "sim/event_loop.h"

#include <algorithm>

#include "common/error.h"

namespace simdc::sim {

EventHandle EventLoop::ScheduleAt(SimTime t, std::function<void()> fn) {
  const EventHandle handle = next_handle_++;
  heap_.push_back(Event{std::max(t, Now()), next_seq_++, handle, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_handles_.insert(handle);
  return handle;
}

std::vector<EventHandle> EventLoop::ScheduleBulk(std::vector<TimedEvent> events) {
  std::vector<EventHandle> handles;
  handles.reserve(events.size());
  if (events.empty()) return handles;
  heap_.reserve(heap_.size() + events.size());
  for (TimedEvent& event : events) {
    const EventHandle handle = next_handle_++;
    heap_.push_back(Event{std::max(event.time, Now()), next_seq_++, handle,
                          std::move(event.fn)});
    pending_handles_.insert(handle);
    handles.push_back(handle);
  }
  // One Floyd rebuild over the whole vector: O(H + N). Pop order depends
  // only on the (time, seq) total order, so runs are bit-identical to the
  // equivalent sequence of ScheduleAt calls.
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  return handles;
}

bool EventLoop::Cancel(EventHandle handle) {
  // Only handles that are still pending can be cancelled; fired, already
  // cancelled and never-issued handles all fail. We cannot remove from the
  // middle of a priority_queue, so record a tombstone that PopNext consumes.
  if (pending_handles_.erase(handle) == 0) return false;
  cancelled_.insert(handle);
  return true;
}

SimTime EventLoop::NextEventTime() {
  while (!heap_.empty()) {
    if (!cancelled_.contains(heap_.front().handle)) return heap_.front().time;
    // Consume the tombstone so the heap and cancelled-set stay bounded.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    cancelled_.erase(heap_.back().handle);
    heap_.pop_back();
  }
  return kNoEvent;
}

bool EventLoop::PopNext(Event& out) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    if (cancelled_.erase(event.handle) > 0) continue;  // tombstoned
    out = std::move(event);
    return true;
  }
  return false;
}

void EventLoop::FastForwardTo(SimTime t) {
  if (t <= clock_.Now()) return;
  SIMDC_CHECK(NextEventTime() >= t,
              "EventLoop::FastForwardTo would skip pending events");
  clock_.AdvanceTo(t);
}

std::size_t EventLoop::Run() {
  std::size_t executed = 0;
  Event event;
  while (PopNext(event)) {
    clock_.AdvanceTo(event.time);
    pending_handles_.erase(event.handle);
    ++processed_;
    ++executed;
    event.fn();
  }
  return executed;
}

std::size_t EventLoop::RunUntil(SimTime t) {
  std::size_t executed = 0;
  for (;;) {
    if (heap_.empty()) break;
    // Peek through tombstones.
    Event event;
    if (!PopNext(event)) break;
    if (event.time > t) {
      // Put it back (re-push preserves ordering; seq already assigned).
      heap_.push_back(std::move(event));
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      break;
    }
    clock_.AdvanceTo(event.time);
    pending_handles_.erase(event.handle);
    ++processed_;
    ++executed;
    event.fn();
  }
  clock_.AdvanceTo(t);
  return executed;
}

bool EventLoop::Step() {
  Event event;
  if (!PopNext(event)) return false;
  clock_.AdvanceTo(event.time);
  pending_handles_.erase(event.handle);
  ++processed_;
  event.fn();
  return true;
}

}  // namespace simdc::sim
