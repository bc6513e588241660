// SimDC platform facade — the public entry point tying every subsystem
// together (paper Fig. 1): Task Manager (queue + greedy scheduler),
// Resource Manager, Logical Simulation (simulated devices trained in
// parallel on the worker pool), Device Simulation (PhoneMgr + simulated
// phone cluster with ADB measurement), DeviceFlow, and the cloud storage /
// metrics database.
#pragma once

#include <memory>
#include <vector>

#include "cloud/database.h"
#include "common/error.h"
#include "core/fl_engine.h"
#include "core/multi_tenant.h"
#include "data/example.h"
#include "phonemgr/phone_mgr.h"
#include "sched/allocation.h"
#include "sched/resource_manager.h"
#include "sched/scheduler.h"
#include "sched/task.h"
#include "sched/task_queue.h"
#include "sim/event_loop.h"

namespace simdc::core {

struct PlatformConfig {
  /// Logical-simulation capacity in unit resource bundles (the paper's
  /// default cluster: 200 CPU cores / 300 GB ≈ 200 unit bundles).
  std::size_t logical_unit_bundles = 200;
  /// Worker threads for CPU-bound training (0 = hardware concurrency).
  /// This sizes the platform's shared pool; a solo experiment's
  /// FlExperimentConfig::parallelism overrides it for that run, while a
  /// multi-tenant run trains every tenant on this pool.
  std::size_t worker_threads = 0;
  /// Seeds the physical cluster, device::MakeDefaultCluster (§VI-A2).
  std::uint64_t seed = 42;
};

/// Options controlling how queued tasks execute.
struct ExecOptions {
  /// True: solve the hybrid allocation ILP; false: use fixed_logical_ratio
  /// (the paper's Type 1–5 settings).
  bool use_optimizer = true;
  double fixed_logical_ratio = 1.0;
  /// Collect benchmarking-device samples into the metrics database.
  SimDuration sample_period = Seconds(15.0);
  /// Aggregation wait between rounds seen by phones.
  double aggregation_wait_s = 10.0;
  /// Per-round communication volumes for phones.
  std::int64_t download_bytes = 16 * 1024;
  std::int64_t upload_bytes = 17 * 1024;
};

/// Outcome of one executed task.
struct TaskReport {
  TaskId id;
  bool ok = false;
  std::string detail;
  sched::AllocationResult allocation;
  SimTime started = 0;
  SimTime finished = 0;
  /// Benchmarking phones per requirement (for Table I queries).
  std::vector<std::vector<PhoneId>> benchmarking;

  double elapsed_seconds() const { return ToSeconds(finished - started); }
};

class Platform {
 public:
  explicit Platform(PlatformConfig config = {});

  /// Allocates a fresh unique task id (§III-A).
  TaskId NextTaskId() { return TaskId(next_task_id_++); }

  /// Queues a task for the scheduler.
  Status SubmitTask(sched::TaskSpec task);

  /// Runs scheduler passes and executes every queued task to completion on
  /// the virtual clock, honoring priorities and resource limits. Returns
  /// one report per queued task, in completion order; a task admission
  /// control can never fit is reported as failed (ok = false) at the time
  /// of the pass that rejected it.
  std::vector<TaskReport> RunQueuedTasks(const ExecOptions& options = {});

  /// Runs a federated-learning experiment end-to-end (training, DeviceFlow
  /// traffic shaping, cloud aggregation) on the platform's event loop.
  /// Local training uses the platform worker pool unless
  /// `config.parallelism` pins a different width; results are identical
  /// either way (see FlExperimentConfig::parallelism). The device
  /// population splits into `config.shards` fleet shards (one by default)
  /// whose flow planes advance in lockstep on the same pool, merged
  /// deterministically into the one aggregator — bit-identical at every
  /// width (see FlExperimentConfig::shards).
  /// The aggregator fetches each payload blob when it admits the message
  /// and stages a view of it; the round-close flush accumulates on the pool.
  FlRunResult RunFlExperiment(const data::FederatedDataset& dataset,
                              FlExperimentConfig config);

  /// Runs N FL tenants concurrently on the platform's shared fleet: the
  /// greedy scheduler admits them from the queue against the platform's
  /// ResourceManager under `policy` (priority or weighted-fair, plus the
  /// fleet-share admission cap), each admitted tenant runs its own
  /// TaskRuntime — per-task strategy, LinkPolicy, quorum/deadline knobs,
  /// seed — on the shared event loop and worker pool, and completions
  /// release resources and re-arbitrate. Returns per-tenant results in
  /// ascending task-id order; see core::MultiTenantEngine for the
  /// determinism contract (bit-identical per-task results at any shard
  /// width / parallelism; contention-free runs match solo runs).
  std::vector<TenantResult> RunMultiTenantExperiment(
      std::vector<TenantTask> tasks, const sched::SchedulePolicy& policy = {});

  // --- Subsystem access for experiments and tests ---
  sim::EventLoop& loop() { return loop_; }
  device::PhoneMgr& phone_mgr() { return phone_mgr_; }
  sched::ResourceManager& resources() { return resources_; }
  sched::TaskQueue& queue() { return queue_; }
  cloud::MetricsDatabase& metrics() { return metrics_; }

 private:
  struct RunningTask {
    sched::TaskSpec spec;
    sched::ResourceRequest frozen;
    TaskReport report;
    std::size_t parts_pending = 0;
  };

  void SchedulerPass(const ExecOptions& options);
  void LaunchTask(sched::TaskSpec task, const ExecOptions& options);
  void FinishPart(const std::shared_ptr<RunningTask>& running,
                  const ExecOptions& options);

  PlatformConfig config_;
  sim::EventLoop loop_;
  ThreadPool workers_;
  device::PhoneMgr phone_mgr_;
  sched::ResourceManager resources_;
  sched::TaskQueue queue_;
  sched::GreedyScheduler scheduler_;
  cloud::MetricsDatabase metrics_;
  std::uint64_t next_task_id_ = 1;
  std::vector<TaskReport> finished_reports_;
};

}  // namespace simdc::core
