// End-to-end federated-learning engine on the SimDC substrate.
//
// This drives the paper's experimental pipeline (§VI): simulated devices
// train a shared LR model locally (logical-simulation devices use the
// server operator, device-simulation devices the mobile operator), upload
// the update blob to shared storage, and send a message through
// DeviceFlow, which shapes the traffic per the task's strategy before it
// reaches the cloud AggregationService. Aggregations fire on a
// sample-threshold or on a schedule; each aggregation closes a round,
// publishes a new global model and is evaluated.
//
// Everything runs on the discrete-event loop: message delays, traffic
// curves, dropouts and 20-minute aggregation windows are virtual time.
//
// FlEngine is the single-task facade: all per-task state lives in
// core::TaskRuntime (so N runtimes can share one cloud loop — see
// core::MultiTenantEngine); FlEngine owns exactly one runtime and drives
// its loops to completion with the same lockstep loop a multi-tenant run
// uses (core::LockstepHooks over one member), preserving the historical
// one-call Run() API bit-for-bit.
#pragma once

#include <memory>

#include "core/task_runtime.h"

namespace simdc::core {

class FlEngine {
 public:
  FlEngine(sim::EventLoop& loop, const data::FederatedDataset& dataset,
           FlExperimentConfig config, ThreadPool* pool = nullptr);

  /// Runs the experiment to completion and returns per-round metrics.
  FlRunResult Run();

  /// Prepares this (freshly constructed) engine to resume a crashed
  /// log+checkpoint run from `config.durability.dir`: loads the latest
  /// valid checkpoint, replays the blob log's valid prefix into the store
  /// (truncating any torn tail), restores aggregator / metrics / dispatch
  /// state, fast-forwards every event loop to the checkpoint time, and
  /// arms Run() to re-enter at the interrupted round. Must be called
  /// before Run() and on an engine that has not run yet. Returns NotFound
  /// when no checkpoint exists (caller should run fresh instead).
  Status RestoreFromRecovery() { return runtime_->RestoreFromRecovery(); }

  /// Optional metrics sink checkpointed alongside the aggregator (the
  /// platform wires its MetricsDatabase here). Checkpoints capture the
  /// database's rows in insertion order; RestoreFromRecovery replays them.
  void set_metrics_database(cloud::MetricsDatabase* db) {
    runtime_->set_metrics_database(db);
  }

  /// Durability plane, or nullptr when config.durability.mode == kOff.
  const persist::DurableStore* durable_store() const {
    return runtime_->durable_store();
  }

  const cloud::AggregationService& aggregation() const {
    return runtime_->aggregation();
  }
  /// Single-fleet flow service; holds no tasks when the run is sharded.
  const flow::DeviceFlow& device_flow() const {
    return runtime_->device_flow();
  }
  const cloud::BlobStore& storage() const { return runtime_->storage(); }
  /// Behavior model, or nullptr when config.behavior.enabled is false.
  /// Mutable so callers can LoadTrace (Fig. 5 replay) before Run().
  device::BehaviorModel* behavior_model() { return runtime_->behavior_model(); }
  const device::BehaviorModel* behavior_model() const {
    return runtime_->behavior_model();
  }

  /// Resolved fleet width (config.shards clamped to the device count).
  std::size_t shards() const { return runtime_->shards(); }
  /// Shard `s`'s device range under the resolved partition.
  const data::ShardRange& shard_range(std::size_t s) const {
    return runtime_->shard_range(s);
  }
  /// Task dispatch accounting, identical in shape for both topologies:
  /// single-fleet runs return the one dispatcher's stats; sharded runs
  /// return per-shard stats merged with summed counters and batch logs
  /// interleaved in (tick time, first message id, shard) order — the same
  /// order the unsharded dispatcher logs, so the result is width-invariant
  /// whenever
  /// the run itself is AND no per-shard log hit its cap (the batch-log
  /// cap is split across fleets to keep total memory at the single-fleet
  /// bound, so truncation points are per-fleet; batches_truncated > 0
  /// flags a capped — and therefore width-sensitive — log).
  flow::DispatchStats dispatch_stats() const {
    return runtime_->dispatch_stats();
  }

  /// Per-task SLA row of the completed (or in-flight) run.
  TaskSlaReport Sla() const { return runtime_->Sla(); }

  /// The underlying per-task runtime (escape hatch for drivers/tests).
  TaskRuntime& runtime() { return *runtime_; }
  const TaskRuntime& runtime() const { return *runtime_; }

 private:
  sim::EventLoop& loop_;
  std::unique_ptr<TaskRuntime> runtime_;
};

}  // namespace simdc::core
