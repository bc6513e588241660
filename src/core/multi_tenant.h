// Multi-tenant FL plane: N concurrent tasks on one shared fleet.
//
// The paper's scheduling plane (§III-B Task Queue / Scheduler, Fig. 7
// allocation) exists to arbitrate many concurrent FL tasks over one device
// fleet. MultiTenantEngine is that arbitration made executable: tenants
// submit (TaskSpec, FlExperimentConfig) pairs, the GreedyScheduler admits
// them from the TaskQueue against the shared ResourceManager (priority or
// weighted-fair policy, with admission control when the fleet saturates),
// and every admitted tenant runs as its own core::TaskRuntime — its own
// AggregationService (per-task quorum/deadline knobs), its own Dispatchers
// (per-task LinkPolicy), its own RNG streams — all interleaved on ONE
// shared cloud event loop.
//
// Determinism contract: every cross-task interleaving decision is made in
// fixed (task id, tick) order —
//   · admission walks the queue in (priority desc, submission) order and
//     completions re-run admission as cloud events at the completion time;
//   · the shared cloud loop orders same-time events by schedule FIFO,
//     which is itself a pure function of (task set, seeds);
//   · one sim::LockstepGroup drives the shared cloud loop and every
//     admitted tenant's shard loops (one or more per tenant) — the same
//     loop a solo FlEngine run uses — and its cross-tenant merge barrier
//     (core::LockstepHooks)
//     forwards buffered shard ticks globally earliest-first, ties broken
//     by ascending task id, one tick at a time (flow::ShardMerger::
//     DrainOne), so each tenant's aggregator observes exactly the clock
//     and order it would have seen running solo.
// Per-task state is fully disjoint (storage, aggregator, dispatchers,
// RNG), so a fixed seed reproduces bit-identical per-task results at any
// engine parallelism and any shard width — and a contention-free run is
// bit-identical to the same tasks run solo in sequence.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/task_runtime.h"
#include "sched/resource_manager.h"
#include "sched/scheduler.h"
#include "sched/task_queue.h"

namespace simdc::core {

/// One tenant's submission: the sched-plane spec (priority, per-grade
/// resource requirements — what admission arbitrates) plus the FL
/// experiment the tenant runs once admitted (per-task policies: strategy,
/// LinkPolicy, quorum/deadline, shards, seed). `fl.parallelism` is not
/// per-task: the engine trains every tenant on its one pool.
/// config::LoadTenantSpec loads one from a spec file.
struct TenantTask {
  sched::TaskSpec spec;
  FlExperimentConfig fl;
  /// Dataset the tenant trains on (not owned; must outlive Run()).
  const data::FederatedDataset* dataset = nullptr;
};

/// Per-tenant outcome of a multi-tenant run.
struct TenantResult {
  TaskId id;
  /// Admitted and ran to completion.
  bool completed = false;
  /// Permanently refused by admission control (demand exceeds the fleet's
  /// totals or the policy's fleet-share cap).
  bool rejected = false;
  std::string detail;
  FlRunResult result;
  TaskSlaReport sla;
};

class MultiTenantEngine {
 public:
  /// `loop` is the shared cloud-plane event loop; `resources` the shared
  /// fleet pool tenants contend over (frozen at admission, released at
  /// completion); `pool` parallelizes every tenant's training, flush and
  /// shard-loop advancement (results are identical with or without it).
  MultiTenantEngine(sim::EventLoop& loop, sched::ResourceManager& resources,
                    ThreadPool* pool = nullptr);

  /// Queues a tenant. Fails on duplicate task ids or a null dataset.
  /// All submissions before Run() carry submit time 0. Overrides
  /// `fl.task` with the spec's id and `fl.parallelism` with 0 (the
  /// engine's pool).
  Status Submit(TenantTask task);

  /// Admits and runs every queued tenant to global quiescence under
  /// `policy`, then returns per-tenant results in ascending task-id order.
  /// Tenants the fleet can never satisfy come back rejected; in
  /// weighted-fair mode, if a pass admits nothing while nothing is
  /// running (mutual fair-share deadlock among oversized demands), the
  /// pass falls back to priority-greedy so the queue always drains.
  std::vector<TenantResult> Run(const sched::SchedulePolicy& policy = {});

  /// Tenants currently admitted and not yet complete (valid during Run —
  /// e.g. from metrics hooks; 0 before/after).
  std::size_t active_tenants() const { return active_; }
  /// High-water mark of concurrently active tenants over the run.
  std::size_t peak_active_tenants() const { return peak_active_; }
  /// Admission passes executed (initial + one per completion event).
  std::size_t admission_passes() const { return admission_passes_; }

 private:
  struct Tenant {
    TenantTask task;
    sched::ResourceRequest frozen;
    std::unique_ptr<TaskRuntime> runtime;
    SimTime submitted = 0;
    bool admitted = false;
    bool rejected = false;
  };

  /// One scheduling pass at the loop's current time: admits every tenant
  /// the policy and pool allow, constructs + Begin()s their runtimes.
  void AdmissionPass(const sched::SchedulePolicy& policy);
  void Admit(Tenant& tenant, SimTime now);
  void OnTenantComplete(Tenant& tenant, SimTime when);

  sim::EventLoop& loop_;
  sched::ResourceManager& resources_;
  ThreadPool* pool_;
  sched::TaskQueue queue_;
  sched::GreedyScheduler scheduler_;
  /// Keyed by task id: the fixed iteration order every cross-tenant
  /// decision (barrier ties, result assembly) is made in.
  std::map<TaskId, Tenant> tenants_;
  /// Every admitted tenant's runtime (completed ones too: their straggler
  /// events still run), in ascending task-id order — the lockstep
  /// membership core::LockstepHooks reads.
  std::vector<TaskRuntime*> admitted_;
  sched::SchedulePolicy policy_;
  std::size_t active_ = 0;
  std::size_t peak_active_ = 0;
  std::size_t admission_passes_ = 0;
  bool running_ = false;
};

}  // namespace simdc::core
