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
  // cancelled and never-issued handles all fail. The heap entry stays
  // behind as a tombstone (its handle is no longer pending), which
  // NextEventTime and Step discard when it surfaces.
  return pending_handles_.erase(handle) > 0;
}

SimTime EventLoop::NextEventTime() {
  while (!heap_.empty() && !pending_handles_.contains(heap_.front().handle)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return heap_.empty() ? kNoEvent : heap_.front().time;
}

void EventLoop::FastForwardTo(SimTime t) {
  if (t <= clock_.Now()) return;
  SIMDC_CHECK(NextEventTime() >= t,
              "EventLoop::FastForwardTo would skip pending events");
  clock_.AdvanceTo(t);
}

std::size_t EventLoop::Run() {
  std::size_t executed = 0;
  while (Step()) ++executed;
  return executed;
}

std::size_t EventLoop::RunUntil(SimTime t) {
  std::size_t executed = 0;
  // Step's own check ends the loop when t == kNoEvent and nothing is left.
  while (NextEventTime() <= t && Step()) ++executed;
  clock_.AdvanceTo(t);
  return executed;
}

bool EventLoop::Step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    if (pending_handles_.erase(event.handle) == 0) continue;  // tombstone
    clock_.AdvanceTo(event.time);
    ++processed_;
    event.fn();
    return true;
  }
  return false;
}

}  // namespace simdc::sim
