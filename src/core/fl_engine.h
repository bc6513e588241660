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
// FlEngine is the TaskRuntime that drives its own loops: all per-task
// state and accessors live in core::TaskRuntime (so N runtimes can share
// one cloud loop — see core::MultiTenantEngine), and Run() drives this one
// runtime — its fleet shards (one at the default width) behind one merger
// — to completion with the same lockstep loop a multi-tenant run uses
// (core::LockstepHooks over one member).
#pragma once

#include "core/task_runtime.h"

namespace simdc::core {

class FlEngine : public TaskRuntime {
 public:
  FlEngine(sim::EventLoop& loop, const data::FederatedDataset& dataset,
           FlExperimentConfig config, ThreadPool* pool = nullptr);

  /// Runs the experiment to completion and returns per-round metrics.
  FlRunResult Run();

  /// The engine as its runtime, for callers that step the runtime
  /// themselves instead of calling Run().
  TaskRuntime& runtime() { return *this; }
  const TaskRuntime& runtime() const { return *this; }

 private:
  sim::EventLoop& loop_;
};

}  // namespace simdc::core
