#include "flow/device_flow.h"

#include <algorithm>
#include <cmath>

#include "common/det_hash.h"
#include "common/log.h"

namespace simdc::flow {

Dispatcher::Dispatcher(sim::EventLoop& loop, TaskId task,
                       DispatchStrategy strategy, CloudEndpoint* downstream,
                       std::uint64_t seed)
    : loop_(loop),
      task_(task),
      strategy_(std::move(strategy)),
      downstream_(downstream),
      rng_(Rng(seed).Split(task.value())),
      drop_seed_(Rng(seed).Split(task.value()).Split("transmission-drop")()),
      retry_seed_(Rng(seed).Split(task.value()).Split("link-retry")()) {}

Dispatcher::~Dispatcher() {
  // Pending OnRoundEnd lambdas and retry attempts capture `this`; cancel
  // them so removing a task mid-interval (or unregistering a churned
  // device's fleet) cannot leave dangling callbacks on the loop.
  for (const sim::EventHandle handle : strategy_events_) {
    loop_.Cancel(handle);
  }
  for (const sim::EventHandle handle : retry_events_) {
    loop_.Cancel(handle);
  }
}

std::size_t Dispatcher::pending_retries() const {
  std::size_t pending = 0;
  for (const sim::EventHandle handle : retry_events_) {
    if (loop_.IsPending(handle)) ++pending;
  }
  return pending;
}

void Dispatcher::TrackRetryEvent(sim::EventHandle handle) {
  // Same bounded-tracking discipline as TrackStrategyEvents: prune fired
  // handles so the vector scales with in-flight retries, not history.
  std::erase_if(retry_events_, [this](sim::EventHandle h) {
    return !loop_.IsPending(h);
  });
  retry_events_.push_back(handle);
}

void Dispatcher::TrackStrategyEvents(std::vector<sim::EventHandle> handles) {
  // Prune fired handles first so the tracking vector stays proportional to
  // the number of *pending* ticks, not ticks ever scheduled.
  std::erase_if(strategy_events_, [this](sim::EventHandle handle) {
    return !loop_.IsPending(handle);
  });
  strategy_events_.insert(strategy_events_.end(), handles.begin(),
                          handles.end());
}

void Dispatcher::OnMessage(Message message) {
  ++stats_.received;
  shelf_.Put(std::move(message));
  if (std::holds_alternative<RealtimeAccumulated>(strategy_)) {
    PumpRealtime();
  }
}

void Dispatcher::PumpRealtime() {
  const auto& strategy = std::get<RealtimeAccumulated>(strategy_);
  if (strategy.thresholds.empty()) return;
  // Dispatch whenever the accumulated count reaches the next threshold in
  // the user sequence, cycling through it (§VI-C2's [20, 100, 50] example).
  for (;;) {
    const std::size_t threshold =
        std::max<std::size_t>(1, strategy.thresholds[threshold_cursor_ %
                                                     strategy.thresholds.size()]);
    if (shelf_.size() < threshold) break;
    DispatchBatch(threshold, strategy.failure_probability, 0);
    ++threshold_cursor_;
  }
}

void Dispatcher::OnRoundStart(std::size_t round) {
  (void)round;
  // §V-B: the real-time accumulated strategy "is activated at the beginning
  // of each round" — restart the threshold cycle.
  if (std::holds_alternative<RealtimeAccumulated>(strategy_)) {
    threshold_cursor_ = 0;
    PumpRealtime();
  }
}

void Dispatcher::OnRoundEnd(std::size_t round) {
  (void)round;
  const SimTime now = loop_.Now();
  if (const auto* points = std::get_if<TimePointDispatch>(&strategy_)) {
    // 2a: schedule each user-defined point (one bulk heap insert).
    std::vector<sim::TimedEvent> events;
    events.reserve(points->points.size());
    for (const auto& point : points->points) {
      const SimTime when = point.relative ? now + point.when : point.when;
      const TimePoint p = point;
      events.push_back({when, [this, p] {
                          DispatchBatch(p.count, p.failure_probability,
                                        p.random_discard);
                        }});
    }
    TrackStrategyEvents(loop_.ScheduleBulk(std::move(events)));
    return;
  }
  if (const auto* interval = std::get_if<TimeIntervalDispatch>(&strategy_)) {
    // 2b: equate pending messages with the curve's AUC, discretize under
    // the capacity limit, and execute as time points (§V-B).
    const std::size_t pending = shelf_.size();
    if (pending == 0) return;
    // Slot resolution (DESIGN.md D2): aim for four slots per second of
    // interval for temporal fidelity, but never so many that the average
    // slot holds fewer than ~10 messages — below that, integer
    // apportionment flattens the curve into a 0/1 pattern. Capacity
    // pressure can still grow the count further.
    const std::size_t by_time =
        static_cast<std::size_t>(4.0 * ToSeconds(interval->interval));
    const std::size_t by_volume = pending / 10;
    const std::size_t min_slots =
        std::max<std::size_t>(50, std::min(by_time, by_volume));
    const auto slots =
        DiscretizeRate(interval->rate, interval->interval, pending,
                       kDefaultCapacityPerSecond, min_slots);
    // Slot schedules are pre-sorted by offset; insert them with one heap
    // rebuild instead of one O(log H) push per slot.
    std::vector<sim::TimedEvent> events;
    events.reserve(slots.size());
    for (const auto& slot : slots) {
      if (slot.count == 0) continue;
      const std::size_t count = slot.count;
      const double fail = interval->failure_probability;
      events.push_back({now + slot.offset, [this, count, fail] {
                          DispatchBatch(count, fail, 0);
                        }});
    }
    TrackStrategyEvents(loop_.ScheduleBulk(std::move(events)));
    return;
  }
  // Realtime accumulated: flush whatever remains below the threshold so a
  // finished round does not strand messages forever.
  if (const auto* realtime = std::get_if<RealtimeAccumulated>(&strategy_)) {
    if (!shelf_.empty()) {
      DispatchBatch(shelf_.size(), realtime->failure_probability, 0);
    }
  }
}

bool Dispatcher::TransmissionDrop(const Message& message,
                                  double failure_probability) {
  if (failure_probability <= 0.0) return false;
  // One uniform in [0, 1) per message, hashed from (drop key, message id)
  // — two SplitMix64 rounds instead of a child-Rng construction, since
  // this sits on the per-message reference path.
  // (HashCombine is the historical two-round SplitMix64 mix, bit for bit.)
  return HashUnit(HashCombine(drop_seed_, message.id.value())) <
         failure_probability;
}

Dispatcher::AttemptOutcome Dispatcher::TryAttempt(const Message& message,
                                                  SimTime when,
                                                  std::size_t attempt) const {
  // Churn first: an offline / churned-out device cannot attempt at all.
  if (availability_ && !availability_(message.device, when)) {
    return AttemptOutcome::kChurn;
  }
  const double p = link_probability_
                       ? link_probability_(message.device, when)
                       : link_.transient_failure_probability;
  if (p <= 0.0) return AttemptOutcome::kDelivered;
  // Keyed draw: even-numbered sub-keys are failure draws, odd ones jitter
  // (RetryDelay), so the two never alias. Pure in (seed, id, attempt) —
  // identical at every shard width.
  const std::uint64_t draw =
      DeterministicHash(retry_seed_, message.id.value(), attempt * 2);
  return HashUnit(draw) < p ? AttemptOutcome::kTransient
                            : AttemptOutcome::kDelivered;
}

SimDuration Dispatcher::RetryDelay(std::uint64_t message_id,
                                   std::size_t attempt) const {
  // Exponential backoff, capped, plus deterministic jitter in [0, base/4]
  // so equal-time retry collisions across messages are measure-zero
  // (merged shard logs at different widths tie-break equal stamps
  // differently; jitter keeps that divergence out of reach). The cap test
  // runs on the double: a huge multiplier takes `base` past SimDuration's
  // range, where Seconds() would overflow.
  const double cap_us = static_cast<double>(link_.backoff_max);
  double base = ToSeconds(link_.backoff_initial);
  for (std::size_t k = 1; k < attempt && base * 1e6 < cap_us; ++k) {
    base *= link_.backoff_multiplier;
  }
  SimDuration backoff =
      base * 1e6 < cap_us ? Seconds(base) : link_.backoff_max;
  if (backoff < 1) backoff = 1;
  const std::uint64_t jitter_draw =
      DeterministicHash(retry_seed_, message_id, attempt * 2 + 1);
  const SimDuration jitter = static_cast<SimDuration>(
      jitter_draw % static_cast<std::uint64_t>(backoff / 4 + 1));
  return backoff + jitter;
}

void Dispatcher::OnAttemptFailed(Message message, SimTime first_attempt,
                                 std::size_t attempt, bool churn) {
  const std::size_t next = attempt + 1;
  const std::size_t max_attempts = std::max<std::size_t>(1, link_.max_attempts);
  if (next >= max_attempts) {
    // Attempts exhausted: the loss classification follows the LAST failure
    // cause — an offline device is a churn loss, a flaky link plain loss.
    ++stats_.dropped;
    if (churn) ++stats_.churn_losses;
    return;
  }
  const SimTime when = first_attempt + RetryDelay(message.id.value(), next);
  if (link_.upload_deadline > 0 &&
      when > first_attempt + link_.upload_deadline) {
    // Deadline math uses first_attempt, itself a pure function of the
    // message's arrival, so the verdict is width-invariant too.
    ++stats_.dropped;
    ++stats_.deadline_drops;
    return;
  }
  ++stats_.retries;
  // NOTE: `when` anchors on first_attempt plus the CUMULATIVE-free backoff
  // of attempt `next` — retry k fires at first + delay(k), not at the
  // previous failure time plus delay. Both are pure schedules; this one
  // keeps every attempt time derivable from (arrival, id, k) alone.
  TrackRetryEvent(loop_.ScheduleAt(
      when, [this, message = std::move(message), first_attempt,
             next]() mutable {
        const SimTime now = loop_.Now();
        switch (TryAttempt(message, now, next)) {
          case AttemptOutcome::kDelivered:
            DeliverRetried(std::move(message), now);
            break;
          case AttemptOutcome::kChurn:
            OnAttemptFailed(std::move(message), first_attempt, next, true);
            break;
          case AttemptOutcome::kTransient:
            OnAttemptFailed(std::move(message), first_attempt, next, false);
            break;
        }
      }));
}

void Dispatcher::DeliverRetried(Message message, SimTime when) {
  ++stats_.sent;
  ++stats_.retry_successes;
  // A retried delivery is its own single-message tick in the batch log —
  // stamped at its (jittered, message-keyed) delivery time, so per-shard
  // logs still interleave back into one canonical order.
  if (stats_.batches.size() < batch_log_cap_) {
    stats_.batches.emplace_back(when, 1);
    stats_.batch_keys.push_back(message.id.value());
  } else {
    ++stats_.batches_truncated;
  }
  if (downstream_ == nullptr) return;
  message.arrival = when;
  std::vector<Message> tick;
  tick.push_back(std::move(message));
  downstream_->DeliverTick(std::move(tick));
}

void Dispatcher::DispatchBatch(std::size_t count, double failure_probability,
                               std::size_t random_discard) {
  const std::size_t n = std::min(count, shelf_.size());
  if (n == 0) return;
  const SimTime now = loop_.Now();
  // Log key for this tick (see DispatchStats::batch_keys).
  const std::uint64_t batch_key = shelf_.front().id.value();

  // Dropout method 2: randomly discard a fixed number of messages, drawn
  // before any message is taken.
  std::vector<bool> discarded;
  if (random_discard > 0) {
    const std::size_t discard = std::min(random_discard, n);
    discarded.resize(n);
    for (const std::size_t v : rng_.SampleWithoutReplacement(n, discard)) {
      discarded[v] = true;
    }
    stats_.dropped += discard;
  }

  // Capacity limit: each message occupies one 1/capacity slot on the
  // single-threaded sender, so a big batch reaches the cloud spread over
  // "the designated time point and subsequent certain intervals" (Fig 10b).
  double capacity = kDefaultCapacityPerSecond;
  if (const auto* realtime = std::get_if<RealtimeAccumulated>(&strategy_)) {
    capacity = realtime->capacity_per_second;
  }
  // Infinite capacity means zero serialization delay — every message of
  // the tick carries the tick's own timestamp, independent of how many
  // other messages this dispatcher has sent (the width-invariant regime).
  // Finite capacities keep the historical >= 1 microsecond floor.
  const SimDuration per_message =
      std::isinf(capacity)
          ? 0
          : std::max<SimDuration>(1, static_cast<SimDuration>(1e6 / capacity));

  next_send_time_ = std::max(next_send_time_, now);
  // The tick, built once and moved to the sink: the survivors themselves,
  // each stamped with its arrival. Payloads stay in storage until the
  // cloud admits each message (§V-A).
  std::vector<Message> tick;
  tick.reserve(n);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Message message = shelf_.Take();
    if (i < discarded.size() && discarded[i]) continue;
    // Dropout method 1: per-message transmission failure (message-keyed
    // draw — see TransmissionDrop; none when the probability is 0).
    if (TransmissionDrop(message, failure_probability)) {
      ++stats_.dropped;
      continue;
    }
    // Transient-link fault plane: attempt 0 happens at the message's
    // would-be arrival stamp. A failed first attempt neither counts as
    // sent nor advances the rate limiter — the message leaves the tick
    // and lives on its own retry schedule (or books its loss). With no
    // hooks and an inactive policy every attempt delivers, without a draw.
    const AttemptOutcome outcome = TryAttempt(message, next_send_time_, 0);
    if (outcome != AttemptOutcome::kDelivered) {
      OnAttemptFailed(std::move(message), next_send_time_, 0,
                      outcome == AttemptOutcome::kChurn);
      continue;
    }
    if (downstream_ != nullptr) {
      message.arrival = next_send_time_;
      tick.push_back(std::move(message));
    }
    next_send_time_ += per_message;
    ++sent;
  }
  if (!tick.empty()) {
    // One event per dispatch tick: the whole capacity window reaches the
    // sink in a single DeliverTick call at the window's first arrival.
    // Round fan-in is O(ticks), not O(messages).
    const SimTime first = tick.front().arrival;
    loop_.ScheduleAt(first, [sink = downstream_,
                             tick = std::move(tick)]() mutable {
      sink->DeliverTick(std::move(tick));
    });
  }
  stats_.sent += sent;
  if (stats_.batches.size() < batch_log_cap_) {
    stats_.batches.emplace_back(now, sent);
    stats_.batch_keys.push_back(batch_key);
  } else {
    ++stats_.batches_truncated;
  }
}

Status DeviceFlow::ConfigureTask(TaskId task, DispatchStrategy strategy,
                                 CloudEndpoint* downstream, std::uint64_t seed) {
  if (dispatchers_.contains(task)) {
    return AlreadyExists("DeviceFlow: task already configured: " +
                         task.ToString());
  }
  dispatchers_.emplace(task, std::make_unique<Dispatcher>(
                                 loop_, task, std::move(strategy), downstream,
                                 seed));
  return Status::Ok();
}

Status DeviceFlow::RemoveTask(TaskId task) {
  if (dispatchers_.erase(task) == 0) {
    return NotFound("DeviceFlow: unknown task: " + task.ToString());
  }
  return Status::Ok();
}

Status DeviceFlow::OnMessage(Message message) {
  // Sorter: route to the task's shelf by the task_id inside the message.
  const auto it = dispatchers_.find(message.task);
  if (it == dispatchers_.end()) {
    return NotFound("DeviceFlow sorter: no shelf for " +
                    message.task.ToString());
  }
  it->second->OnMessage(std::move(message));
  return Status::Ok();
}

Status DeviceFlow::OnRoundStart(TaskId task, std::size_t round) {
  const auto it = dispatchers_.find(task);
  if (it == dispatchers_.end()) {
    return NotFound("DeviceFlow: unknown task: " + task.ToString());
  }
  it->second->OnRoundStart(round);
  return Status::Ok();
}

Status DeviceFlow::OnRoundEnd(TaskId task, std::size_t round) {
  const auto it = dispatchers_.find(task);
  if (it == dispatchers_.end()) {
    return NotFound("DeviceFlow: unknown task: " + task.ToString());
  }
  it->second->OnRoundEnd(round);
  return Status::Ok();
}

const Dispatcher* DeviceFlow::FindDispatcher(TaskId task) const {
  const auto it = dispatchers_.find(task);
  return it == dispatchers_.end() ? nullptr : it->second.get();
}

Dispatcher* DeviceFlow::FindDispatcher(TaskId task) {
  const auto it = dispatchers_.find(task);
  return it == dispatchers_.end() ? nullptr : it->second.get();
}

}  // namespace simdc::flow
