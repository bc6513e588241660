// DeviceFlow — the programmable device-behavior traffic controller (§V).
//
// Architecture (Fig. 4): the Sorter receives messages from the
// computational clusters and shelves them by task_id; one Dispatcher per
// Shelf executes the task's user-defined Strategy, pulling pending
// messages and delivering them to the downstream cloud service. Dispatchers
// of different tasks are fully independent ("the dispatch processes of
// different tasks remain isolated and do not interfere").
//
// From the edge's perspective DeviceFlow is a cloud proxy; from the
// cloud's perspective it *is* the device population — including its
// dropouts, bursts and diurnal traffic shapes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/rng.h"
#include "flow/message.h"
#include "flow/strategy.h"
#include "sim/event_loop.h"

namespace simdc::flow {

/// Downstream consumer (the cloud service / aggregation endpoint).
class CloudEndpoint {
 public:
  virtual ~CloudEndpoint() = default;

  /// The one delivery hook: one dispatch tick, in a single virtual call,
  /// handed over whole. Each message carries its own arrival stamp, and the
  /// stamps are non-decreasing. Payloads stay in storage: a sink that reads
  /// them fetches each blob itself (cloud::AggregationService does so when
  /// it admits the message); the traffic sinks only count arrivals.
  virtual void DeliverTick(std::vector<Message> tick) = 0;
};

/// Default bound on DispatchStats::batches entries (see batch_log_cap).
inline constexpr std::size_t kDefaultBatchLogCap = 1u << 20;

/// Transient-link fault policy for a dispatcher: flaky radios that fail an
/// upload attempt without killing the message (distinct from the
/// strategy's failure_probability, which models permanent loss). Failed
/// attempts retry with exponential backoff plus deterministic jitter; both
/// the per-attempt failure draw and the jitter are keyed on
/// (seed, task, message id, attempt) — pure functions like
/// Dispatcher::TransmissionDrop — so the whole retry schedule of a message
/// is partition- and shard-width-invariant. Retries bypass the
/// dispatcher's capacity rate limiter: they model the device's own radio
/// coming back, not the serialized sender, which is what keeps the
/// schedule a function of the message alone.
struct LinkPolicy {
  /// Probability one upload attempt fails transiently (a per-message
  /// availability/link-quality hook on the dispatcher overrides this with
  /// a time-varying value).
  double transient_failure_probability = 0.0;
  /// Total attempts per message, first try included (1 = never retry; a
  /// message whose last attempt fails is dropped).
  std::size_t max_attempts = 1;
  /// Backoff before retry k (1-based): min(backoff_max,
  /// backoff_initial * backoff_multiplier^(k-1)) plus a deterministic
  /// jitter in [0, base/4].
  SimDuration backoff_initial = Seconds(1.0);
  double backoff_multiplier = 2.0;
  SimDuration backoff_max = Seconds(60.0);
  /// Hard per-message upload deadline measured from the message's first
  /// attempt: a retry that would land past it is not scheduled and the
  /// message books a deadline drop. 0 = no deadline.
  SimDuration upload_deadline = 0;

  /// Whether this policy can change any message's fate on its own.
  bool active() const {
    return transient_failure_probability > 0.0 || upload_deadline > 0;
  }
};

/// Per-task dispatch accounting (drives Fig. 10 and Table II).
/// The loss taxonomy: every lost message counts in `dropped` (so
/// emitted == received-by-cloud + dropped always balances); deadline_drops
/// and churn_losses additionally classify losses the fault plane caused.
struct DispatchStats {
  std::size_t received = 0;
  std::size_t sent = 0;
  std::size_t dropped = 0;
  /// Retry attempts scheduled after a transiently-failed upload attempt.
  std::size_t retries = 0;
  /// Messages delivered on an attempt after the first.
  std::size_t retry_successes = 0;
  /// Messages dropped because the next retry would exceed the
  /// LinkPolicy::upload_deadline (also counted in `dropped`).
  std::size_t deadline_drops = 0;
  /// Messages dropped because the device was unavailable (churned out /
  /// offline) at their final attempt (also counted in `dropped`).
  std::size_t churn_losses = 0;
  /// (dispatch time, messages dispatched) per executed batch/slot. Growth
  /// is bounded by the dispatcher's batch_log_cap; ticks beyond the cap
  /// are counted in batches_truncated instead of stored, so week-long
  /// simulations do not grow memory without limit.
  std::vector<std::pair<SimTime, std::size_t>> batches;
  /// Parallel to `batches`: the first shelved message id of each logged
  /// tick. Ids are assigned globally in wave- then device-order, so this
  /// is the equal-timestamp merge key that lets per-shard logs interleave
  /// into one order that is the same at every width
  /// (FlEngine::dispatch_stats).
  std::vector<std::uint64_t> batch_keys;
  /// Executed ticks not recorded in `batches` because the cap was reached.
  std::size_t batches_truncated = 0;

  /// Sums `other`'s counters into this one. The batch log and its keys are
  /// neither read nor copied, so summing N dispatchers is O(N).
  void AddCounters(const DispatchStats& other) {
    received += other.received;
    sent += other.sent;
    dropped += other.dropped;
    retries += other.retries;
    retry_successes += other.retry_successes;
    deadline_drops += other.deadline_drops;
    churn_losses += other.churn_losses;
    batches_truncated += other.batches_truncated;
  }
};

/// FIFO buffer of pending messages for one task (Fig. 4's "Shelf").
class Shelf {
 public:
  void Put(Message message) { messages_.push_back(std::move(message)); }

  /// The oldest message; the shelf must not be empty.
  const Message& front() const { return messages_.front(); }
  /// Removes and returns the oldest message; the shelf must not be empty.
  Message Take() {
    Message message = std::move(messages_.front());
    messages_.pop_front();
    return message;
  }

  std::size_t size() const { return messages_.size(); }
  bool empty() const { return messages_.empty(); }

 private:
  std::deque<Message> messages_;
};

/// Executes one task's strategy against its shelf (Fig. 4's "Dispatcher").
class Dispatcher {
 public:
  Dispatcher(sim::EventLoop& loop, TaskId task, DispatchStrategy strategy,
             CloudEndpoint* downstream, std::uint64_t seed);

  /// Cancels every still-pending strategy event this dispatcher scheduled;
  /// those closures capture `this`, so a dispatcher removed mid-interval
  /// must take them down with it (see DeviceFlow::RemoveTask).
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Message ingress (already sorted to this task).
  void OnMessage(Message message);

  /// Round lifecycle hooks from the computational clusters (§V-A: clusters
  /// send signals at "the initiation and completion of each round").
  void OnRoundStart(std::size_t round);
  void OnRoundEnd(std::size_t round);

  const DispatchStats& stats() const { return stats_; }
  const Shelf& shelf() const { return shelf_; }
  TaskId task() const { return task_; }

  /// Bounds DispatchStats::batches (default kDefaultBatchLogCap).
  void set_batch_log_cap(std::size_t cap) { batch_log_cap_ = cap; }

  /// Arms the transient-link fault plane (see LinkPolicy). Inactive by
  /// default — with the default policy and no hooks, dispatch behavior is
  /// bit-identical to a dispatcher without the fault plane.
  void set_link_policy(LinkPolicy policy) { link_ = policy; }
  const LinkPolicy& link_policy() const { return link_; }

  /// Device availability at a given instant (device::BehaviorModel binds
  /// here). When set, every upload attempt first checks the sender's
  /// availability; an unavailable device fails the attempt (retried under
  /// the link policy; the final such failure books a churn loss). MUST be
  /// a pure function of (device, time) and thread-safe: sharded fleets
  /// evaluate it from shard loops advancing in parallel, and purity is
  /// what keeps outcomes width-invariant.
  using AvailabilityFn = std::function<bool(DeviceId, SimTime)>;
  void set_availability(AvailabilityFn fn) { availability_ = std::move(fn); }

  /// Per-(device, time) transient failure probability, overriding
  /// LinkPolicy::transient_failure_probability (diurnal link quality).
  /// Same purity/thread-safety contract as the availability hook.
  using LinkProbabilityFn = std::function<double(DeviceId, SimTime)>;
  void set_link_probability(LinkProbabilityFn fn) {
    link_probability_ = std::move(fn);
  }

  /// Still-pending retry attempts (scheduled, not yet fired); their
  /// closures capture `this` and are cancelled on destruction.
  std::size_t pending_retries() const;

 private:
  /// Takes up to `count` from the shelf, applies dropout, rate-limits
  /// delivery to the downstream endpoint: one pass builds the tick that
  /// one delivery event hands over.
  void DispatchBatch(std::size_t count, double failure_probability,
                     std::size_t random_discard);
  /// Transmission-failure draw for one message. Keyed by (dispatcher
  /// seed, message id) rather than a shared sequential stream, so the
  /// decision for a given message is identical no matter how messages are
  /// partitioned across dispatchers or grouped into ticks — the property
  /// that keeps sharded fleets bit-identical at every width.
  bool TransmissionDrop(const Message& message, double failure_probability);
  /// One upload attempt's verdict at `when` (attempt 0 = the dispatch
  /// tick itself). Draws are keyed on (retry seed, message id, attempt) —
  /// pure functions, no sequential RNG state.
  enum class AttemptOutcome { kDelivered, kChurn, kTransient };
  AttemptOutcome TryAttempt(const Message& message, SimTime when,
                            std::size_t attempt) const;
  /// Books a failed attempt: schedules the next retry under the backoff /
  /// deadline policy, or commits the loss (dropped + churn/deadline
  /// classification). `first_attempt` anchors the upload deadline.
  void OnAttemptFailed(Message message, SimTime first_attempt,
                       std::size_t attempt, bool churn);
  /// Delivers a message that succeeded on a retry attempt, logging it as
  /// its own single-message tick at `when`.
  void DeliverRetried(Message message, SimTime when);
  /// Backoff + deterministic jitter before retry `attempt` (1-based).
  SimDuration RetryDelay(std::uint64_t message_id, std::size_t attempt) const;
  void TrackRetryEvent(sim::EventHandle handle);
  void PumpRealtime();
  /// Records handles of scheduled strategy events (for ~Dispatcher),
  /// pruning ones that already fired so tracking stays bounded.
  void TrackStrategyEvents(std::vector<sim::EventHandle> handles);

  sim::EventLoop& loop_;
  TaskId task_;
  DispatchStrategy strategy_;
  CloudEndpoint* downstream_;
  Rng rng_;
  /// Key for per-message transmission-failure draws (see
  /// TransmissionDrop); shared-seed dispatchers derive the same key, so
  /// shard slices agree on every message's fate.
  std::uint64_t drop_seed_;
  /// Key for per-(message, attempt) transient-failure and jitter draws;
  /// derived like drop_seed_ so shard slices agree on retry schedules.
  std::uint64_t retry_seed_;
  /// Transient-link fault plane (inactive by default).
  LinkPolicy link_;
  AvailabilityFn availability_;
  LinkProbabilityFn link_probability_;
  /// Pending retry events (closures capture `this`); cancelled on
  /// destruction, pruned as they fire so tracking stays bounded.
  std::vector<sim::EventHandle> retry_events_;
  Shelf shelf_;
  DispatchStats stats_;
  std::size_t batch_log_cap_ = kDefaultBatchLogCap;
  /// Pending OnRoundEnd time-point/slot events (their closures capture
  /// `this`); cancelled on destruction.
  std::vector<sim::EventHandle> strategy_events_;
  /// Threshold-cycle position for RealtimeAccumulated.
  std::size_t threshold_cursor_ = 0;
  /// Rate limiter: earliest time the next message may leave.
  SimTime next_send_time_ = 0;
};

/// The DeviceFlow service: Sorter + per-task Shelf/Dispatcher/Strategy.
class DeviceFlow {
 public:
  explicit DeviceFlow(sim::EventLoop& loop) : loop_(loop) {}

  /// Registers a task with its strategy and downstream service.
  Status ConfigureTask(TaskId task, DispatchStrategy strategy,
                       CloudEndpoint* downstream, std::uint64_t seed = 0);
  Status RemoveTask(TaskId task);

  /// Sorter entry point: routes by message.task (§V-A).
  Status OnMessage(Message message);

  Status OnRoundStart(TaskId task, std::size_t round);
  Status OnRoundEnd(TaskId task, std::size_t round);

  const Dispatcher* FindDispatcher(TaskId task) const;
  Dispatcher* FindDispatcher(TaskId task);
  std::size_t num_tasks() const { return dispatchers_.size(); }

 private:
  sim::EventLoop& loop_;
  std::unordered_map<TaskId, std::unique_ptr<Dispatcher>> dispatchers_;
};

}  // namespace simdc::flow
