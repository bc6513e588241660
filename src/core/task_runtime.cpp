#include "core/task_runtime.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.h"
#include "common/stats.h"
#include "data/sharding.h"

namespace simdc::core {

SimDuration FeedbackGuard(const FlExperimentConfig& config) {
  return std::max<SimDuration>(0, Seconds(config.compute_seconds));
}

sim::LockstepGroup::Hooks LockstepHooks(
    const std::vector<TaskRuntime*>& members) {
  sim::LockstepGroup::Hooks hooks;
  hooks.shard_loops = [&members](std::vector<sim::EventLoop*>& out) {
    for (TaskRuntime* runtime : members) {
      const std::vector<sim::EventLoop*> loops = runtime->ShardLoops();
      out.insert(out.end(), loops.begin(), loops.end());
    }
  };
  hooks.next_pending = [&members] {
    SimTime next = sim::EventLoop::kNoEvent;
    for (const TaskRuntime* runtime : members) {
      next = std::min(next, runtime->merger()->NextTickTime());
    }
    return next;
  };
  hooks.drain = [&members](SimTime horizon) {
    // One tick at a time: each DrainOne mirrors the cloud clock to its
    // tick time before delivering, so a member's aggregator sees Now() ==
    // tick time even when another member's later tick is already buffered.
    // (ManualClock::AdvanceTo is monotone, so an earlier tick after a later
    // one would stall the mirror; global earliest-first keeps the mirrored
    // sequence non-decreasing.) Members are re-read after every tick: a
    // delivery can run cloud events through the mirror, and those may
    // admit new members.
    for (;;) {
      flow::ShardMerger* best = nullptr;
      SimTime best_time = sim::EventLoop::kNoEvent;
      for (TaskRuntime* runtime : members) {
        flow::ShardMerger* merger = runtime->merger();
        const SimTime t = merger->NextTickTime();
        if (t < best_time) {  // strict less: earliest task id wins ties
          best_time = t;
          best = merger;
        }
      }
      if (best == nullptr || best_time > horizon) return;
      (void)best->DrainOne(horizon);
    }
  };
  return hooks;
}

TaskRuntime::TaskRuntime(sim::EventLoop& loop,
                         const data::FederatedDataset& dataset,
                         FlExperimentConfig config, ThreadPool* pool)
    : loop_(loop),
      dataset_(dataset),
      config_(std::move(config)),
      pool_(pool),
      flow_(loop),
      rng_(Rng(config_.seed).Split("fl-engine")) {
  SIMDC_CHECK(!dataset.devices.empty(), "TaskRuntime: dataset has no devices");
  // Resolve the training parallelism knob (see FlExperimentConfig): 1
  // forces the sequential path, N > 1 guarantees exactly N workers. The
  // knob never changes results, only wall time.
  if (config_.parallelism == 1) {
    pool_ = nullptr;
  } else if (config_.parallelism > 1 &&
             (pool_ == nullptr || pool_->size() != config_.parallelism)) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.parallelism);
    pool_ = owned_pool_.get();
  }
  cloud::AggregationConfig agg;
  agg.model_dim = dataset.hash_dim;
  agg.trigger = config_.trigger;
  agg.sample_threshold = config_.sample_threshold;
  agg.schedule_period = config_.schedule_period;
  agg.max_rounds = config_.rounds;
  agg.reject_stale = config_.reject_stale;
  agg.round_quorum = config_.round_quorum;
  agg.round_deadline = config_.round_deadline;
  agg.round_extension = config_.round_extension;
  agg.max_round_extensions = config_.max_round_extensions;
  service_ = std::make_unique<cloud::AggregationService>(loop_, storage_, agg);
  // The staged-update flush borrows the training pool; with parallelism 1
  // there is no pool and the flush accumulates serially (bit-identical).
  service_->set_thread_pool(pool_);

  if (config_.behavior.enabled) {
    behavior_ = std::make_unique<device::BehaviorModel>(config_.behavior);
  }

  if (config_.durability.mode != persist::DurabilityMode::kOff) {
    // The journal is attached to storage_ later — by Begin() after
    // BeginFresh, or by RestoreFromRecovery after replay — so recovery
    // replay never re-logs itself.
    durable_ = std::make_unique<persist::DurableStore>(config_.durability);
  }

  // Contiguous device ranges, one event loop and one dispatcher per fleet
  // (width 1 included), all funneling into the global service through the
  // (tick time, message id, shard)-ordered merger.
  const std::size_t width = std::clamp<std::size_t>(
      config_.shards == 0 ? 1 : config_.shards, 1, dataset.devices.size());
  merger_ = std::make_unique<flow::ShardMerger>(width, service_.get(), &loop_);
  shards_.reserve(width);
  for (std::size_t s = 0; s < width; ++s) {
    FleetShard shard;
    shard.loop = std::make_unique<sim::EventLoop>();
    // Same seed for every shard: per-message draws (TransmissionDrop) then
    // agree across widths on each message's fate.
    shard.dispatcher = std::make_unique<flow::Dispatcher>(
        *shard.loop, config_.task, config_.strategy, &merger_->channel(s),
        config_.seed);
    // Split the batch-log cap across fleets so total log memory keeps the
    // one-fleet bound instead of scaling with shard count.
    shard.dispatcher->set_batch_log_cap(
        std::max<std::size_t>(1, flow::kDefaultBatchLogCap / width));
    shard.dispatcher->set_decoder(&decoder_);
    ConfigureLinkPlane(*shard.dispatcher);
    shards_.push_back(std::move(shard));
  }

  // Build the train-evaluation pool: a deterministic, capped sample of the
  // union of device shards (Fig. 9b reports train accuracy).
  Rng pool_rng = Rng(config_.seed).Split("train-eval-pool");
  for (const auto& device : dataset_.devices) {
    for (const auto& example : device.examples) {
      if (train_eval_pool_.size() < config_.eval_cap) {
        train_eval_pool_.push_back(example);
      } else {
        // Approximate reservoir: each later example replaces a uniform
        // slot with fixed probability 1/8 (NOT the cap/seen schedule of a
        // true reservoir, so late shards are somewhat over-represented);
        // good enough for a smoothed train-metric pool, and deterministic.
        const auto j = static_cast<std::size_t>(pool_rng.UniformInt(
            0, static_cast<std::int64_t>(train_eval_pool_.size()) * 8));
        if (j < train_eval_pool_.size()) train_eval_pool_[j] = example;
      }
    }
  }
}

std::vector<sim::EventLoop*> TaskRuntime::ShardLoops() {
  std::vector<sim::EventLoop*> loops;
  loops.reserve(shards_.size());
  for (FleetShard& shard : shards_) loops.push_back(shard.loop.get());
  return loops;
}

void TaskRuntime::ConfigureLinkPlane(flow::Dispatcher& dispatcher) {
  dispatcher.set_link_policy(config_.link);
  if (behavior_ == nullptr) return;
  // Both hooks query a pure function of (seed, device key, time) on a
  // model shared across shards, so every width observes the same faults.
  device::BehaviorModel* model = behavior_.get();
  dispatcher.set_availability([model](DeviceId device, SimTime when) {
    return model->Available(device.value(), when);
  });
  if (config_.behavior.link_base_failure > 0.0 ||
      config_.behavior.link_diurnal_swing > 0.0) {
    dispatcher.set_link_probability([model](DeviceId device, SimTime when) {
      return model->LinkFailureProbability(device.value(), when);
    });
  }
}

bool TaskRuntime::ShouldStop() const {
  if (result_.rounds.size() >= config_.rounds) return true;
  if (config_.time_window > 0 && loop_.Now() >= config_.time_window) {
    return true;
  }
  return false;
}

void TaskRuntime::Complete(SimTime when) {
  service_->Stop();
  if (done_) return;
  done_ = true;
  completed_at_ = when;
  if (on_complete_) on_complete_(when);
}

void TaskRuntime::Begin() {
  service_->set_on_aggregate(
      [this](const cloud::AggregationRecord& record, const ml::LrModel& model) {
        RecordRound(record, model);
      });
  service_->set_on_round_aborted([this](SimTime when) {
    if (metrics_ != nullptr) {
      metrics_->RecordScalar("fl/round_aborted", when, 1.0);
    }
    CloseEmptyRound(when);
  });
  if (durable_ != nullptr && !resume_pending_) {
    // Fresh durable run: wipe any previous run's log/checkpoints, then
    // attach the journal so every Put/Delete from here on is logged.
    const Status fresh = durable_->BeginFresh();
    SIMDC_CHECK(fresh.ok(),
                "TaskRuntime: durable store init failed: " << fresh.ToString());
    storage_.set_journal(durable_.get());
  }
  service_->Start();
  if (resume_pending_) {
    resume_pending_ = false;
    StartRoundFrom(resume_round_, resume_t0_);
  } else {
    StartRoundFrom(0, loop_.Now());
  }
}

FlRunResult TaskRuntime::Finalize() {
  const ml::LrModel& model = service_->global_model();
  result_.model_dim = model.dim();
  result_.final_weights.assign(model.weights().begin(),
                               model.weights().end());
  result_.final_bias = model.bias();
  result_.messages_dropped = DispatchCounters().dropped;
  result_.rounds_degraded = service_->deadline_commits();
  result_.rounds_extended = service_->round_extensions();
  result_.rounds_aborted = service_->aborted_rounds();
  return result_;
}

flow::DispatchStats TaskRuntime::dispatch_stats() const {
  // Recovered engines report the checkpointed prefix followed by this
  // process's ticks (a fresh run's prefix is empty). Every post-resume
  // tick stamps at or after the checkpoint time, so appending IS the
  // global merge order.
  flow::DispatchStats merged = restored_stats_;
  std::vector<std::size_t> cursors(shards_.size(), 0);
  std::size_t remaining = 0;
  for (const FleetShard& shard : shards_) {
    merged.AddCounters(shard.dispatcher->stats());
    remaining += shard.dispatcher->stats().batches.size();
  }
  merged.batches.reserve(merged.batches.size() + remaining);
  merged.batch_keys.reserve(merged.batch_keys.size() + remaining);
  // Per-shard logs are time-sorted (appended in loop order); a strict-less
  // k-way merge interleaves them in (tick time, first message id, shard)
  // order — the same equal-timestamp key the ShardMerger uses, so the log
  // is the same at every width.
  while (remaining > 0) {
    std::size_t best_shard = shards_.size();
    SimTime best_time = 0;
    std::uint64_t best_key = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& stats = shards_[s].dispatcher->stats();
      if (cursors[s] >= stats.batches.size()) continue;
      const SimTime t = stats.batches[cursors[s]].first;
      const std::uint64_t key = stats.batch_keys[cursors[s]];
      if (best_shard == shards_.size() || t < best_time ||
          (t == best_time && key < best_key)) {
        best_shard = s;
        best_time = t;
        best_key = key;
      }
    }
    const auto& stats = shards_[best_shard].dispatcher->stats();
    merged.batches.push_back(stats.batches[cursors[best_shard]]);
    merged.batch_keys.push_back(stats.batch_keys[cursors[best_shard]]);
    ++cursors[best_shard];
    --remaining;
  }
  return merged;
}

flow::DispatchStats TaskRuntime::DispatchCounters() const {
  flow::DispatchStats counters;
  for (const FleetShard& shard : shards_) {
    counters.AddCounters(shard.dispatcher->stats());
  }
  // A resumed run's pre-crash counters live in the checkpointed prefix,
  // not in this process's dispatchers.
  counters.AddCounters(restored_stats_);
  return counters;
}

void TaskRuntime::RecordRoundLatency(SimTime closed_at) {
  round_latencies_s_.push_back(
      ToSeconds(std::max<SimTime>(closed_at, current_round_t0_) -
                current_round_t0_));
}

TaskSlaReport TaskRuntime::Sla() const {
  TaskSlaReport sla;
  sla.task = config_.task;
  sla.rounds = result_.rounds.size();
  if (!round_latencies_s_.empty()) {
    RunningStats stats;
    double max_latency = 0.0;
    for (const double latency : round_latencies_s_) {
      stats.Add(latency);
      max_latency = std::max(max_latency, latency);
    }
    sla.round_latency_mean_s = stats.mean();
    sla.round_latency_max_s = max_latency;
    // Percentiles through a Histogram over the observed range. A fixed
    // 256-bin resolution bounds the interpolation error at 1/256 of the
    // span even when only a handful of rounds closed (fewer bins than
    // samples would smear a lone latency toward the range's midpoint).
    Histogram hist(0.0, std::max(max_latency, 1e-9), 256);
    for (const double latency : round_latencies_s_) hist.Add(latency);
    sla.round_latency_p50_s = hist.ApproxPercentile(0.50);
    sla.round_latency_p95_s = hist.ApproxPercentile(0.95);
    sla.round_latency_p99_s = hist.ApproxPercentile(0.99);
  }
  const flow::DispatchStats counters = DispatchCounters();
  sla.retries = counters.retries;
  sla.deadline_drops = counters.deadline_drops;
  sla.churn_losses = counters.churn_losses;
  sla.rounds_degraded = service_->deadline_commits();
  sla.rounds_extended = service_->round_extensions();
  sla.rounds_aborted = service_->aborted_rounds();
  sla.skipped_unavailable = result_.skipped_unavailable;
  sla.messages_emitted = result_.messages_emitted;
  sla.messages_dropped = counters.dropped;
  sla.submitted = submitted_at_;
  sla.admitted = admitted_at_;
  sla.completed = completed_at_;
  sla.queue_wait_s = ToSeconds(std::max<SimTime>(admitted_at_, submitted_at_) -
                               submitted_at_);
  sla.makespan_s = ToSeconds(std::max<SimTime>(completed_at_, admitted_at_) -
                             admitted_at_);
  return sla;
}

void TaskRuntime::StartRoundFrom(std::size_t round, SimTime t0) {
  if (ShouldStop()) {
    Complete(t0);
    return;
  }
  ++rounds_started_;
  current_round_t0_ = t0;
  // Reclaim the previous round's payload blobs before emitting this
  // round's: bounds blob memory to one round's working set. Stragglers
  // still in flight lose their payloads (see FlExperimentConfig).
  if (config_.reclaim_payload_blobs && !round_blob_ids_.empty()) {
    for (const BlobId id : round_blob_ids_) {
      if (const Status deleted = storage_.Delete(id); !deleted.ok()) {
        // The engine only reclaims ids it put itself, so a failure means
        // the id bookkeeping drifted; say so instead of leaking silently.
        SIMDC_LOG(kWarn, "TaskRuntime")
            << "payload blob reclaim failed for id " << id.value() << ": "
            << deleted.ToString();
      }
    }
    round_blob_ids_.clear();
    (void)storage_.ReclaimArena();
  }
  // Round-start runs as a shard-loop EVENT, not synchronously: called
  // directly, the pump for leftover shelf messages (multi-message
  // thresholds) would read a shard clock that can sit BEHIND t0 and stamp
  // arrivals before the aggregation that opened the round. ScheduleAt
  // clamps to the shard clock, so the pump fires at max(t0, shard clock):
  // exactly t0 when the round opens from the cloud plane (scheduled
  // triggers — shards have not reached t0 yet), and at most one feedback
  // guard past t0 when it opens mid-drain (shards already advanced to the
  // barrier horizon). Stamps are thus always >= t0; the residual lag is
  // only observable outside the width-invariance regime (pass-through
  // strategies keep the shelf empty, making the pump a no-op).
  for (FleetShard& shard : shards_) {
    flow::Dispatcher* dispatcher = shard.dispatcher.get();
    shard.loop->ScheduleAt(t0, [dispatcher, round] {
      dispatcher->OnRoundStart(round);
    });
  }

  // Open the round for the quorum/deadline policy (no-op when disabled).
  service_->OnRoundOpened(t0);

  // Pick participants.
  std::vector<std::size_t> participants;
  const std::size_t n = dataset_.devices.size();
  if (config_.participants_per_round == 0 ||
      config_.participants_per_round >= n) {
    participants.resize(n);
    for (std::size_t i = 0; i < n; ++i) participants[i] = i;
  } else {
    Rng round_rng = Rng(config_.seed).Split(round * 2654435761ULL + 17);
    participants = round_rng.SampleWithoutReplacement(
        n, config_.participants_per_round);
    std::sort(participants.begin(), participants.end());
  }

  // Behavior gate: unavailable devices (churned out, diurnal trough, low
  // battery, trace-offline) sit this round out. The selection above is
  // unchanged, so enabling the model never re-rolls WHO would have been
  // picked — it only subtracts the unavailable.
  if (behavior_ != nullptr) {
    std::size_t kept = 0;
    for (const std::size_t index : participants) {
      if (behavior_->Available(dataset_.devices[index].device.value(), t0)) {
        participants[kept++] = index;
      } else {
        ++result_.skipped_unavailable;
      }
    }
    participants.resize(kept);
  }

  // Train every participant from the current global model. Work is
  // CPU-parallel but deterministic: each device's result depends only on
  // (global model, shard, seeds), never on execution order.
  const ml::LrModel& global = service_->global_model();
  const auto logical_cut = static_cast<std::size_t>(
      config_.logical_fraction * static_cast<double>(n) + 0.5);
  // The round's payload slots are reserved in the store's arena before
  // training, with blob ids assigned in slot order; each worker encodes
  // its trained model straight into its own slot, so a payload is written
  // once and never copied. Nothing touches the store between here and the
  // commit below.
  const std::size_t payload_bytes = global.EncodedSize(config_.payload_codec);
  cloud::PooledReservation payloads =
      storage_.ReservePooled(participants.size(), payload_bytes);
  std::vector<TrainedUpdate> results(participants.size());

  auto train_one = [&, this](std::size_t slot) {
    const std::size_t device_index = participants[slot];
    const auto& shard = dataset_.devices[device_index];
    ml::LrModel local = global;
    // §VI-B2: logical simulation uses the PyMNN-like server kernel, device
    // simulation the MNN-like mobile kernel.
    const ml::OperatorVenue venue = device_index < logical_cut
                                        ? ml::OperatorVenue::kServer
                                        : ml::OperatorVenue::kMobile;
    const auto op = ml::MakeLrOperator(venue);
    ml::TrainConfig train = config_.train;
    train.shuffle_seed =
        SplitMix64(config_.seed ^ (device_index * 1000003ULL + round));
    op->Train(local, shard.examples, train);

    local.EncodeTo(payloads.slot(slot), config_.payload_codec);
    TrainedUpdate& out = results[slot];
    out.samples = shard.examples.size();
    out.device = shard.device;
    Rng delay_rng = Rng(config_.seed).Split(device_index ^ (round << 20));
    const SimDuration extra =
        config_.delay_fn
            ? config_.delay_fn(shard, round, delay_rng)
            : Seconds(shard.response_delay_s);
    out.delay = Seconds(config_.compute_seconds) + std::max<SimDuration>(0, extra);
  };

  if (pool_ != nullptr) {
    pool_->ParallelFor(participants.size(),
                       [&](std::size_t slot) { train_one(slot); });
  } else {
    for (std::size_t slot = 0; slot < participants.size(); ++slot) {
      train_one(slot);
    }
  }

  // Emit upload events: a message into the owning shard's flow plane at
  // the device's response time, referencing its payload blob. Messages
  // carry the *aggregation* round they were trained against (what a
  // staleness-filtering cloud checks), which can lag the engine's round
  // index when a round closed empty. Message ids, blob ids and emit
  // accounting are all assigned in slot (device-index) order, so the fired
  // closures touch only their own shard's state — the property that lets
  // shard loops advance on pool threads without locks. Participants are
  // sorted by device index and shards are contiguous ranges, so each
  // shard's list keeps global slot order and the (time, shard, FIFO)
  // merge gives the same tie-breaks at every width.
  const std::size_t aggregation_round = service_->rounds_completed();
  SimDuration max_delay = 0;
  std::vector<std::vector<sim::TimedEvent>> shard_uploads(shards_.size());
  for (std::size_t slot = 0; slot < participants.size(); ++slot) {
    const TrainedUpdate& trained = results[slot];
    max_delay = std::max(max_delay, trained.delay);
    const SimTime when = t0 + trained.delay;
    flow::Message message;
    message.id = MessageId(next_message_id_++);
    message.task = config_.task;
    message.device = trained.device;
    message.round = aggregation_round;
    message.payload_bytes = static_cast<std::int64_t>(payload_bytes);
    message.payload = payloads.id(slot);
    if (config_.reclaim_payload_blobs) {
      round_blob_ids_.push_back(message.payload);
    }
    message.sample_count = trained.samples;
    message.created = when;  // == loop time when the upload event fires
    ++result_.messages_emitted;
    const std::size_t s = data::ShardOf(participants[slot],
                                        dataset_.devices.size(), shards_.size());
    flow::Dispatcher* dispatcher = shards_[s].dispatcher.get();
    shard_uploads[s].push_back(
        {when, [dispatcher, message = std::move(message)]() mutable {
           dispatcher->OnMessage(std::move(message));
         }});
  }
  // Publish the round's payloads before any upload can fire: one journal
  // record per blob, in id order.
  storage_.CommitPooled(std::move(payloads));
  // One heap rebuild per loop for the round's uploads (O(N + H), same
  // FIFO tie-breaks as scheduling them one by one).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    (void)shards_[s].loop->ScheduleBulk(std::move(shard_uploads[s]));
  }

  // Device-side round completion → rule-based strategies fire. The global
  // round end (max delay over ALL shards) flushes every shard at once, so
  // the flush time does not depend on the width.
  const SimTime round_end = t0 + max_delay;
  for (FleetShard& shard : shards_) {
    flow::Dispatcher* dispatcher = shard.dispatcher.get();
    shard.loop->ScheduleAt(round_end, [dispatcher, round] {
      dispatcher->OnRoundEnd(round);
    });
  }

  // Stall guard: if the trigger never fires (heavy dropout under a sample
  // threshold), force-aggregate; with nothing pending, close an empty
  // round so the experiment still advances.
  stall_event_ = loop_.ScheduleAt(
      round_end + config_.stall_timeout, [this, round] {
        stall_event_ = 0;
        if (last_recorded_round_ > round) return;  // already closed
        if (!service_->AggregateNow()) CloseEmptyRound(loop_.Now());
      });

  // Group-commit the round's durable mutations (payload puts, reclaim
  // deletes) as one append + fsync. I/O failures degrade durability, never
  // the simulation: the records stay buffered (or, past a failed fsync,
  // un-synced in the file) and the run continues.
  if (durable_ != nullptr) {
    if (const Status committed = durable_->CommitLog(); !committed.ok()) {
      SIMDC_LOG(kWarn, "TaskRuntime")
          << "durable log commit failed: " << committed.ToString();
    }
  }
}

void TaskRuntime::CloseEmptyRound(SimTime when) {
  if (stall_event_ != 0) {
    loop_.Cancel(stall_event_);
    stall_event_ = 0;
  }
  // The global model did not move, but the round still books an evaluation
  // row so the accuracy curve shows the hole where the round would have
  // been.
  RoundMetrics metrics;
  metrics.round = result_.rounds.size() + 1;
  metrics.time = when;
  const auto eval_test = ml::Evaluate(
      service_->global_model(),
      std::span(dataset_.test_set.data(),
                std::min(dataset_.test_set.size(), config_.eval_cap)));
  metrics.test_accuracy = eval_test.accuracy;
  metrics.test_logloss = eval_test.logloss;
  result_.rounds.push_back(metrics);
  last_recorded_round_ = rounds_started_;
  RecordRoundLatency(when);
  StartRoundFrom(rounds_started_, std::max(loop_.Now(), when));
}

void TaskRuntime::RecordRound(const cloud::AggregationRecord& record,
                              const ml::LrModel& model) {
  if (stall_event_ != 0) {
    loop_.Cancel(stall_event_);
    stall_event_ = 0;
  }
  RoundMetrics metrics;
  metrics.round = record.round;
  metrics.time = record.time;
  metrics.clients = record.clients;
  metrics.samples = record.samples;
  const auto test_span =
      std::span(dataset_.test_set.data(),
                std::min(dataset_.test_set.size(), config_.eval_cap));
  const auto test = ml::Evaluate(model, test_span);
  metrics.test_accuracy = test.accuracy;
  metrics.test_logloss = test.logloss;
  const auto train = ml::Evaluate(model, train_eval_pool_);
  metrics.train_accuracy = train.accuracy;
  metrics.train_logloss = train.logloss;
  result_.rounds.push_back(metrics);
  last_recorded_round_ = rounds_started_;
  RecordRoundLatency(record.time);
  // Degradation accounting: a round that closed as a deadline commit (or
  // after extensions) books a row per event, keyed to the round's time, so
  // the metrics DB carries the same degradation curve the run result does.
  if (metrics_ != nullptr) {
    if (service_->deadline_commits() > booked_deadline_commits_) {
      booked_deadline_commits_ = service_->deadline_commits();
      metrics_->RecordScalar("fl/round_degraded", record.time,
                             static_cast<double>(record.clients));
    }
    if (service_->round_extensions() > booked_round_extensions_) {
      metrics_->RecordScalar(
          "fl/round_extensions", record.time,
          static_cast<double>(service_->round_extensions() -
                              booked_round_extensions_));
      booked_round_extensions_ = service_->round_extensions();
    }
  }
  PersistRoundBoundary(record);

  if (!ShouldStop()) {
    // Anchor at the aggregation's wire time, which is ahead of Now() when
    // the round closed inside a delivery tick.
    StartRoundFrom(rounds_started_, std::max(loop_.Now(), record.time));
  } else {
    Complete(record.time);
  }
}

void TaskRuntime::PersistRoundBoundary(const cloud::AggregationRecord& record) {
  if (durable_ == nullptr) return;
  // Commit first so the checkpoint's log offset covers everything the
  // snapshot references — most importantly the global-model blob this
  // aggregation just published.
  if (const Status committed = durable_->CommitLog(); !committed.ok()) {
    SIMDC_LOG(kWarn, "TaskRuntime")
        << "durable log commit failed: " << committed.ToString();
  }
  if (config_.durability.mode != persist::DurabilityMode::kLogCheckpoint) {
    return;
  }
  persist::CheckpointState state;
  state.time = record.time;
  // The same anchor RecordRound passes to StartRoundFrom: a resumed engine
  // re-enters the next round at exactly the t0 the uninterrupted run used.
  state.resume_t0 = std::max(loop_.Now(), record.time);
  state.next_round = rounds_started_;
  state.next_message_id = next_message_id_;
  state.next_blob_id = storage_.next_id();
  state.rounds_started = rounds_started_;
  state.last_recorded_round = last_recorded_round_;
  state.messages_emitted = result_.messages_emitted;
  state.storage_bytes_written = storage_.bytes_written();
  state.storage_bytes_read = storage_.bytes_read();
  state.pending_delete_blobs.reserve(round_blob_ids_.size());
  for (const BlobId id : round_blob_ids_) {
    state.pending_delete_blobs.push_back(id.value());
  }
  state.aggregation = service_->Snapshot();
  state.rounds.reserve(result_.rounds.size());
  for (const RoundMetrics& m : result_.rounds) {
    persist::CheckpointRound row;
    row.round = m.round;
    row.time = m.time;
    row.test_accuracy = m.test_accuracy;
    row.test_logloss = m.test_logloss;
    row.train_accuracy = m.train_accuracy;
    row.train_logloss = m.train_logloss;
    row.clients = m.clients;
    row.samples = m.samples;
    state.rounds.push_back(row);
  }
  state.dispatch = dispatch_stats();
  if (metrics_ != nullptr) {
    (void)metrics_->Flush();
    state.scalars = metrics_->ScalarRows();
    state.perf_samples = metrics_->Samples();
  }
  // No messages in flight <=> everything emitted was delivered or dropped.
  // Bit-identical resume is only guaranteed from quiescent boundaries; the
  // flag rides in the checkpoint so recovery can assert it.
  state.quiescent = result_.messages_emitted ==
                    service_->messages_received() + state.dispatch.dropped;
  if (const Status wrote = durable_->WriteCheckpoint(std::move(state));
      !wrote.ok()) {
    SIMDC_LOG(kWarn, "TaskRuntime")
        << "checkpoint write failed: " << wrote.ToString();
  }
}

Status TaskRuntime::RestoreFromRecovery() {
  SIMDC_CHECK(durable_ != nullptr &&
                  config_.durability.mode ==
                      persist::DurabilityMode::kLogCheckpoint,
              "TaskRuntime::RestoreFromRecovery requires durability = "
              "log+checkpoint");
  SIMDC_CHECK(rounds_started_ == 0 && result_.rounds.empty(),
              "TaskRuntime::RestoreFromRecovery: engine already ran");
  auto recovered = durable_->BeginResume(storage_);
  if (!recovered.ok()) return recovered.error();
  if (!recovered->has_checkpoint) {
    return NotFound("no checkpoint in '" + config_.durability.dir +
                    "'; run fresh instead");
  }
  const persist::CheckpointState& cp = recovered->checkpoint;

  next_message_id_ = cp.next_message_id;
  rounds_started_ = static_cast<std::size_t>(cp.rounds_started);
  last_recorded_round_ = static_cast<std::size_t>(cp.last_recorded_round);
  result_.messages_emitted = static_cast<std::size_t>(cp.messages_emitted);
  result_.rounds.clear();
  result_.rounds.reserve(cp.rounds.size());
  for (const persist::CheckpointRound& row : cp.rounds) {
    RoundMetrics m;
    m.round = static_cast<std::size_t>(row.round);
    m.time = row.time;
    m.test_accuracy = row.test_accuracy;
    m.test_logloss = row.test_logloss;
    m.train_accuracy = row.train_accuracy;
    m.train_logloss = row.train_logloss;
    m.clients = static_cast<std::size_t>(row.clients);
    m.samples = static_cast<std::size_t>(row.samples);
    result_.rounds.push_back(m);
  }
  round_blob_ids_.clear();
  round_blob_ids_.reserve(cp.pending_delete_blobs.size());
  for (const std::uint64_t id : cp.pending_delete_blobs) {
    round_blob_ids_.push_back(BlobId(id));
  }
  service_->RestoreSnapshot(cp.aggregation);
  restored_stats_ = cp.dispatch;
  if (metrics_ != nullptr) {
    metrics_->Restore(cp.perf_samples, cp.scalars);
  }
  // Re-anchor every loop at the checkpoint's virtual time before anything
  // is scheduled, so ScheduleAt clamping and FIFO tie-breaks behave as
  // they did in the original run.
  loop_.FastForwardTo(cp.resume_t0);
  for (FleetShard& shard : shards_) {
    shard.loop->FastForwardTo(cp.resume_t0);
  }
  resume_round_ = static_cast<std::size_t>(cp.next_round);
  resume_t0_ = cp.resume_t0;
  resume_pending_ = true;
  // Journal attaches only now: the log replay above must not re-log.
  storage_.set_journal(durable_.get());
  return Status::Ok();
}

}  // namespace simdc::core
