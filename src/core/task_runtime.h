// Per-task FL runtime: every piece of state one federated-learning task
// owns — model/aggregator wiring, round state machine, per-task
// Dispatcher/LinkPolicy instances, RNG streams, dispatch stats, durability
// plane — so N of them can share one cloud event loop and one device
// fleet.
//
// Every runtime has one topology: N >= 1 fleet shards, each with its own
// event loop and dispatcher, feeding one flow::ShardMerger in front of the
// task's AggregationService. A TaskRuntime does NOT drive event loops. One
// driver loop does: sim::LockstepGroup, with hooks LockstepHooks builds
// over a set of runtimes. FlEngine, the TaskRuntime that drives its own
// loops, runs it over itself; MultiTenantEngine runs it over every
// admitted tenant against one shared cloud loop, in fixed (task id, tick)
// order.
// Everything the driver needs — shard loops, merger, feedback guard — is
// exposed read-only, and all per-task state is private to the runtime,
// which is what makes contention-free multi-tenant runs bit-identical to
// solo runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/aggregation.h"
#include "cloud/database.h"
#include "cloud/storage.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/example.h"
#include "device/behavior.h"
#include "flow/device_flow.h"
#include "flow/shard_merger.h"
#include "ml/metrics.h"
#include "ml/operators.h"
#include "persist/durable_store.h"
#include "sim/event_loop.h"
#include "sim/lockstep.h"

namespace simdc::core {

/// Per-round evaluation record; checkpoints carry the same rows.
using RoundMetrics = cloud::RoundMetrics;

struct FlRunResult {
  std::vector<RoundMetrics> rounds;
  std::size_t messages_emitted = 0;
  std::size_t messages_dropped = 0;
  /// Fault-plane accounting (all zero when the behavior model and the
  /// quorum/deadline policy are off, keeping the struct bit-identical to
  /// pre-fault-plane runs). Selected participants skipped because the
  /// behavior model reported them unavailable at round start:
  std::size_t skipped_unavailable = 0;
  /// Rounds committed at their deadline with only quorum-many updates
  /// (deadline commits), deadline extensions granted, and rounds aborted
  /// after exhausting extensions below quorum.
  std::size_t rounds_degraded = 0;
  std::size_t rounds_extended = 0;
  std::size_t rounds_aborted = 0;
  /// Final global model (dimension = dataset hash_dim).
  std::uint32_t model_dim = 0;
  std::vector<float> final_weights;
  float final_bias = 0.0f;
};

struct FlExperimentConfig {
  ml::TrainConfig train;
  /// Maximum aggregation rounds.
  std::size_t rounds = 10;
  /// When > 0, stop once virtual time passes this window (Fig. 9a's
  /// "fixed 20-minute window") even if fewer rounds completed.
  SimDuration time_window = 0;
  /// Fraction of devices executed in Logical Simulation (server operator);
  /// the rest run as Device Simulation (mobile operator). Fig. 6 Types 1–5.
  double logical_fraction = 1.0;
  /// DeviceFlow strategy for this task's traffic.
  flow::DispatchStrategy strategy = flow::RealtimeAccumulated{{1}, 0.0};
  /// Wire precision of device→cloud update payload blobs (spec:
  /// [execution] payload_codec = fp32 | fp16 | int8). kFp32 (default)
  /// keeps the historical format bit-for-bit, so results match the
  /// pre-codec engine exactly. kFp16 / kInt8 shrink payload bytes ~2×/~4×
  /// (BlobStore::bytes_written reflects it) at the cost of quantizing each
  /// update once on the device side; dequantization runs in the round-close
  /// FedAvg flush lanes, which read the stored blob in place. Any codec is
  /// deterministic and width-invariant — the quantize→dequantize round
  /// trip is a pure function of the update, so all shard widths see
  /// identical dequantized models.
  ml::PayloadCodec payload_codec = ml::PayloadCodec::kFp32;
  /// Bound steady-state blob memory to one round's working set: at each
  /// round start the engine deletes the previous round's update payload
  /// blobs and recycles the BlobStore arena (published global-model blobs
  /// are untouched). Staged updates keep their bytes alive (arena blocks
  /// are refcounted). The cloud fetches a payload when it admits the
  /// message, so a straggler message delivered after its round's reclaim
  /// finds its payload missing and is dropped as a decode failure (or, under
  /// reject_stale, as a stale rejection) — identical at every shard width
  /// (in-flight sets are width-invariant), but not byte-identical to a
  /// run without reclaim when stragglers exist. Payloads are written into
  /// the arena either way (BlobStore::ReservePooled); with reclaim off
  /// they, and their slabs, are simply kept. Off by default; the
  /// million-device ladder turns it on.
  bool reclaim_payload_blobs = false;
  cloud::AggregationTrigger trigger = cloud::AggregationTrigger::kScheduled;
  std::size_t sample_threshold = 1000;
  SimDuration schedule_period = Seconds(60.0);
  /// Cloud rejects updates from earlier rounds (see AggregationConfig).
  bool reject_stale = false;
  /// Device behavior model (spec: [behavior] section). Disabled by default
  /// — every device is always available with a perfect link, reproducing
  /// pre-fault-plane results exactly. When enabled, round-start participant
  /// selection skips unavailable devices (counted in
  /// FlRunResult::skipped_unavailable) and the dispatcher consults the
  /// model for mid-flight churn (availability hook) and diurnal link
  /// quality (link-probability hook). All queries are pure functions of
  /// (behavior.seed, device key, time), so the fault pattern is
  /// bit-identical at every shard width.
  device::BehaviorConfig behavior;
  /// Transient-link retry policy for every dispatcher (spec: [link]
  /// section). Inactive by default; see flow::LinkPolicy. Per-task: in a
  /// multi-tenant run each task's dispatchers carry their own policy.
  flow::LinkPolicy link;
  /// Graceful round degradation (spec: [execution] round_quorum /
  /// round_deadline_s / round_extension_s / max_round_extensions). Engages
  /// only when BOTH round_quorum > 0 and round_deadline > 0; the defaults
  /// reproduce pre-policy behavior exactly. See cloud::AggregationConfig.
  /// Per-task: each tenant's AggregationService gets its own knobs.
  std::size_t round_quorum = 0;
  SimDuration round_deadline = 0;
  SimDuration round_extension = 0;
  std::size_t max_round_extensions = 1;
  /// Message delay after round start for one device (traffic curve).
  /// Default: the device's stored response_delay_s.
  std::function<SimDuration(const data::DeviceData&, std::size_t round, Rng&)>
      delay_fn;
  /// Devices participating per round (0 = all).
  std::size_t participants_per_round = 0;
  /// Local compute latency added before a device's message leaves.
  double compute_seconds = 2.0;
  /// If an aggregation round stalls (e.g. heavy dropout under a sample
  /// threshold), force-aggregate after this much extra waiting.
  SimDuration stall_timeout = Minutes(5.0);
  /// Cap on test/train examples scored per evaluation.
  static constexpr std::size_t eval_cap = 20000;
  /// Worker threads for per-client local training within a round:
  ///   0  — inherit whatever pool the caller passed (Platform's worker
  ///        pool; sequential when constructed without one);
  ///   1  — force sequential execution in the calling thread;
  ///   N  — train with exactly N workers (the engine owns a private pool
  ///        unless the caller's pool already has N threads).
  /// Results are bit-for-bit identical for every setting: each client draws
  /// from its own seed-derived RNG stream and updates are reduced in fixed
  /// client-index order on the event loop. A multi-tenant engine trains
  /// every tenant on its one pool and resets this to 0 at submission.
  std::size_t parallelism = 0;
  /// Fleet shards (0 counts as 1; clamped to the device count). The
  /// dataset's devices split into N contiguous index ranges; each shard
  /// owns its own event loop and flow::Dispatcher producing per-tick
  /// delivery events, advanced in lockstep (sim::LockstepGroup) and
  /// funneled into the one global AggregationService by a
  /// flow::ShardMerger in (tick time, first message id, shard) order.
  /// Width 1 is one such shard: every width runs the same code. Because
  /// shards are contiguous ranges — so per-shard streams stay sorted by
  /// the global (wave, device) message-id order — and transmission-failure
  /// draws are message-keyed, FlRunResult, arrival stamps, drop counts and
  /// merged dispatch stats are bit-identical at every width — provided
  /// dispatch ticks carry one message (pass-through thresholds) and the
  /// strategy's capacity_per_second keeps the per-shard rate limiter
  /// disengaged (flow::kShardWidthInvariantCapacity); multi-message ticks
  /// and biting rate limits make per-shard state semantically per-fleet,
  /// which stays deterministic at a fixed width but is not
  /// width-invariant. Round start restarts a RealtimeAccumulated threshold
  /// cycle as a shard-loop event at max(t0, shard clock), width 1
  /// included. Shard loops advance on the training pool when one is
  /// available, so the flow plane parallelizes across fleets; the merge
  /// stays single-threaded and fixed-order (the parameter-server reduction
  /// discipline).
  /// Exact-microsecond cross-plane collisions resolve cloud-plane-first,
  /// then shard order (see sim::LockstepGroup).
  std::size_t shards = 1;
  /// Durability plane (spec: [execution] durability = off |
  /// log+checkpoint, durability_dir = path). kOff (default) keeps the
  /// in-memory store and is bit-identical to the historical engine — no
  /// journal is attached, no I/O happens. kLogCheckpoint appends every
  /// BlobStore mutation to an on-disk record log, group-committed once per
  /// round boundary, and writes an atomic aggregator checkpoint at each
  /// round boundary; a crashed run restored with RestoreFromRecovery()
  /// re-executes the interrupted round and finishes with bit-identical
  /// FlRunResult, counters and dispatch stats (persist::DurableStore
  /// documents the quiescent-boundary caveat).
  persist::DurabilityConfig durability;
  std::uint64_t seed = 1;
  TaskId task = TaskId(1);
};

/// Per-task SLA row: round-latency percentiles (computed through
/// simdc::Histogram) plus the fault-plane counters that feed per-tenant
/// SLO dashboards. All times are virtual (simulation) time.
struct TaskSlaReport {
  TaskId task = TaskId(0);
  std::size_t rounds = 0;
  /// Latency of one round = aggregation close time − round open t0,
  /// in seconds. Percentiles are read from a Histogram over the observed
  /// range (Histogram::ApproxPercentile), so p50/p95/p99 are exact to one
  /// bin of resolution.
  double round_latency_mean_s = 0.0;
  double round_latency_max_s = 0.0;
  double round_latency_p50_s = 0.0;
  double round_latency_p95_s = 0.0;
  double round_latency_p99_s = 0.0;
  /// Fault-plane counters (flow::DispatchStats / FlRunResult).
  std::uint64_t retries = 0;
  std::uint64_t deadline_drops = 0;
  std::uint64_t churn_losses = 0;
  std::size_t rounds_degraded = 0;
  std::size_t rounds_extended = 0;
  std::size_t rounds_aborted = 0;
  std::size_t skipped_unavailable = 0;
  std::size_t messages_emitted = 0;
  std::size_t messages_dropped = 0;
  /// Admission timeline (filled by MultiTenantEngine; zero for solo runs):
  /// submitted → admitted is the queue wait, admitted → completed the
  /// makespan.
  SimTime submitted = 0;
  SimTime admitted = 0;
  SimTime completed = 0;
  double queue_wait_s = 0.0;
  double makespan_s = 0.0;
};

/// Lower bound on the delay between a drained delivery and anything it
/// schedules — the lockstep feedback guard (see sim::LockstepGroup). Every
/// event a delivery can trigger (uploads, round-end flush, stall guard)
/// sits at least compute_seconds after the triggering arrival.
SimDuration FeedbackGuard(const FlExperimentConfig& config);

class TaskRuntime {
 public:
  /// `loop` is the cloud-plane event loop (shared across tasks in a
  /// multi-tenant run). `pool` resolution follows
  /// FlExperimentConfig::parallelism.
  TaskRuntime(sim::EventLoop& loop, const data::FederatedDataset& dataset,
              FlExperimentConfig config, ThreadPool* pool = nullptr);

  // --- Lifecycle (the caller drives the loops between Begin and Finalize).
  /// Binds aggregation callbacks, arms the durability plane and starts
  /// round 0 (or the restored resume round) at the loop's current time.
  void Begin();
  /// Stamps the final model and degradation counters into the result.
  /// Call after every loop is quiescent (all of this task's events fired).
  FlRunResult Finalize();

  /// True once the task reached its terminal state (all rounds recorded or
  /// the time window expired). Leftover straggler events may still fire
  /// after this; they no longer change the result.
  bool done() const { return done_; }
  /// Fires exactly once at the terminal transition with the closing
  /// virtual time — the multi-tenant engine releases the task's frozen
  /// resources and re-runs admission here. Set before Begin().
  void set_on_complete(std::function<void(SimTime)> on_complete) {
    on_complete_ = std::move(on_complete);
  }

  /// Prepares this (freshly constructed) runtime to resume a crashed
  /// log+checkpoint run from `config.durability.dir`: loads the latest
  /// valid checkpoint, replays the blob log up to the offset it pins into
  /// the store (truncating the file there), restores aggregator / metrics
  /// / dispatch state, fast-forwards every event loop to the checkpoint
  /// time, and arms Begin() to re-enter at the interrupted round. Must be
  /// called before Begin() (FlEngine: before Run()) on a runtime that has
  /// not run yet. Returns NotFound, leaving the log as it is, when no
  /// checkpoint exists (caller should run fresh instead), DataLoss when
  /// the log no longer holds the prefix the checkpoint pins (see
  /// persist::DurableStore::BeginResume), and FailedPrecondition, before
  /// restoring anything, when the checkpoint's model dimension is not the
  /// dataset's hash_dim.
  Status RestoreFromRecovery();

  /// Optional metrics sink checkpointed alongside the aggregator (the
  /// platform wires its MetricsDatabase here). Checkpoints capture the
  /// database's rows in insertion order; RestoreFromRecovery replays them.
  void set_metrics_database(cloud::MetricsDatabase* db) { metrics_ = db; }

  // --- Driver surface.
  /// Always true; only benchmark/src/repetition.cpp still reads it.
  bool sharded() const { return true; }
  /// One event loop per fleet shard (at least one); stable for the
  /// runtime's lifetime.
  std::vector<sim::EventLoop*> ShardLoops();
  /// The merger every shard delivers into; never null.
  flow::ShardMerger* merger() { return merger_.get(); }
  const flow::ShardMerger* merger() const { return merger_.get(); }
  /// Training pool after parallelism resolution (may be nullptr).
  ThreadPool* pool() { return pool_; }
  /// FeedbackGuard of this task's config.
  SimDuration feedback_guard() const { return FeedbackGuard(config_); }

  // --- Accessors.
  const FlExperimentConfig& config() const { return config_; }
  /// Durability plane, or nullptr when config.durability.mode == kOff.
  const persist::DurableStore* durable_store() const { return durable_.get(); }
  const cloud::AggregationService& aggregation() const { return *service_; }
  /// An empty DeviceFlow; only benchmark/src/repetition.cpp still reads it.
  const flow::DeviceFlow& device_flow() const { return flow_; }
  const cloud::BlobStore& storage() const { return storage_; }
  /// Behavior model, or nullptr when config.behavior.enabled is false.
  /// Mutable so callers can LoadTrace (Fig. 5 replay) before Begin().
  device::BehaviorModel* behavior_model() { return behavior_.get(); }
  const device::BehaviorModel* behavior_model() const {
    return behavior_.get();
  }
  /// Resolved fleet width (config.shards clamped to the device count).
  std::size_t shards() const { return shards_.size(); }
  /// Task dispatch accounting: per-shard stats merged with summed counters
  /// and batch logs interleaved in (tick time, first message id, shard)
  /// order, so the result is width-invariant whenever the run itself is
  /// AND no per-shard log hit its cap (the batch-log cap is split across
  /// fleets to keep total memory at the one-fleet bound, so truncation
  /// points are per-fleet; batches_truncated > 0 flags a capped — and
  /// therefore width-sensitive — log).
  flow::DispatchStats dispatch_stats() const;

  /// Per-task SLA row from the run so far: round-latency percentiles via
  /// Histogram::ApproxPercentile plus the fault-plane counters. The
  /// counter sums skip the batch-log merge, so this is O(rounds + shards).
  TaskSlaReport Sla() const;
  /// Admission timeline stamped into Sla() (multi-tenant bookkeeping).
  void set_queue_times(SimTime submitted, SimTime admitted) {
    submitted_at_ = submitted;
    admitted_at_ = admitted;
  }
  SimTime completed_at() const { return completed_at_; }

 private:
  /// One fleet shard: its own event loop carrying the shard's upload and
  /// dispatch events, and its own dispatcher delivering into the merger's
  /// channel. Loops are heap-allocated so Dispatcher's loop reference
  /// stays stable as the vector grows.
  struct FleetShard {
    std::unique_ptr<sim::EventLoop> loop;
    std::unique_ptr<flow::Dispatcher> dispatcher;
  };

  /// Opens round `rounds_started_`. `t0` anchors the round's upload
  /// schedule. Threshold-triggered rounds pass the aggregation record
  /// time: the triggering update's arrival, which can sit ahead of loop
  /// time inside a delivery tick.
  void StartRound(SimTime t0);
  void RecordRound(const cloud::AggregationRecord& record,
                   const ml::LrModel& model);
  /// Closes the open round without an aggregation — the stall guard with
  /// nothing pending, or a quorum/deadline abort: books an evaluation row
  /// of the unchanged model at `when` and starts the next round there.
  void CloseEmptyRound(SimTime when);
  /// Binds the fault plane (link policy, availability and link-probability
  /// hooks) onto one dispatcher; called for every dispatcher at setup.
  void ConfigureLinkPlane(flow::Dispatcher& dispatcher);
  bool ShouldStop() const;
  /// Terminal transition: stops the aggregation service, stamps the
  /// completion time and fires on_complete_ exactly once.
  void Complete(SimTime when);
  /// Commits the pending blob-log records (one append + fsync) and
  /// atomically publishes a checkpoint of the state a resumed run needs to
  /// re-enter at round `rounds_started_`. I/O failures are logged and the
  /// run continues (durability degrades; the simulation result is
  /// unaffected).
  void PersistRoundBoundary(const cloud::AggregationRecord& record);
  /// dispatch_stats() without the batch logs: counters summed over every
  /// dispatcher plus the restored prefix, O(shards), no log copied.
  flow::DispatchStats DispatchCounters() const;
  /// Books one closed round's latency (seconds since its StartRound t0)
  /// for the SLA percentiles.
  void RecordRoundLatency(SimTime closed_at);

  sim::EventLoop& loop_;
  const data::FederatedDataset& dataset_;
  FlExperimentConfig config_;
  /// Pool created when config_.parallelism asks for a width the caller's
  /// pool does not provide; pool_ then points at it.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  cloud::BlobStore storage_;
  /// Never configured; kept only for device_flow().
  flow::DeviceFlow flow_;
  std::unique_ptr<cloud::AggregationService> service_;
  /// Behavior model (null when config_.behavior.enabled is false). Shared
  /// by round-start participant filtering and every dispatcher's hooks;
  /// safe because all queries are const + pure after setup.
  std::unique_ptr<device::BehaviorModel> behavior_;
  /// Fleet topology. merger_ is declared before shards_ so dispatchers —
  /// whose downstream_ points at the merger's channels — are destroyed
  /// before the channels they feed.
  std::unique_ptr<flow::ShardMerger> merger_;
  std::vector<FleetShard> shards_;
  Rng rng_;
  FlRunResult result_;
  /// Per-participant training output for the round in flight, besides the
  /// payload, which each participant encodes straight into its reserved
  /// blob-store arena slot (BlobStore::ReservePooled).
  struct TrainedUpdate {
    std::size_t samples = 0;
    SimDuration delay = 0;
    DeviceId device;
  };
  /// Payload blob ids created for the round in flight; tracked (and
  /// deleted at the next round start) only under reclaim_payload_blobs.
  std::vector<BlobId> round_blob_ids_;
  /// The engine's one round cursor: rounds opened so far, which is also
  /// the index of the next round to open.
  std::size_t rounds_started_ = 0;
  /// High-water marks of the service's degradation counters already booked
  /// into the metrics DB (RecordRound books deltas per closing round).
  std::size_t booked_deadline_commits_ = 0;
  std::size_t booked_round_extensions_ = 0;
  /// Training-set evaluation pool (capped union of device shards).
  std::vector<data::Example> train_eval_pool_;
  std::uint64_t next_message_id_ = 1;
  sim::EventHandle stall_event_ = 0;
  /// Durability plane (null when config_.durability.mode == kOff). The
  /// journal is attached to storage_ only after BeginFresh/BeginResume so
  /// recovery replay is never re-journaled.
  std::unique_ptr<persist::DurableStore> durable_;
  /// Optional metrics sink included in checkpoints (not owned).
  cloud::MetricsDatabase* metrics_ = nullptr;
  /// Dispatch stats recovered from the checkpoint (empty on a fresh run);
  /// dispatch_stats() prepends them to this process's stats so a resumed
  /// run reports the same merged log as an uninterrupted one (every
  /// post-checkpoint tick stamps >= the checkpoint time, so prefix order is
  /// global order).
  flow::DispatchStats restored_stats_;
  /// The checkpoint's next-round anchor, set by RestoreFromRecovery;
  /// Begin() consumes it to re-enter mid-run.
  std::optional<SimTime> resume_t0_;
  // --- SLA bookkeeping (observes the run; never feeds back into it).
  bool done_ = false;
  std::function<void(SimTime)> on_complete_;
  SimTime current_round_t0_ = 0;
  std::vector<double> round_latencies_s_;
  SimTime submitted_at_ = 0;
  SimTime admitted_at_ = 0;
  SimTime completed_at_ = 0;
};

/// sim::LockstepGroup hooks over task runtimes sharing one cloud loop:
/// every member's shard loops, the earliest tick buffered in any member's
/// merger, and a drain that forwards ticks one at a time
/// (flow::ShardMerger::DrainOne) — globally earliest first, ties broken
/// by ascending task id — so each member's aggregator sees exactly the
/// clock and order of its solo run. `members` must be in ascending
/// task-id order and outlive the group's Run; it may grow while the group
/// runs (hooks re-read it on every call).
sim::LockstepGroup::Hooks LockstepHooks(
    const std::vector<TaskRuntime*>& members);
/// The hooks keep a reference to `members`: a temporary would dangle.
sim::LockstepGroup::Hooks LockstepHooks(std::vector<TaskRuntime*>&&) = delete;

}  // namespace simdc::core
