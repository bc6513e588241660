#include "core/fl_engine.h"

#include <utility>
#include <vector>

namespace simdc::core {

FlEngine::FlEngine(sim::EventLoop& loop, const data::FederatedDataset& dataset,
                   FlExperimentConfig config, ThreadPool* pool)
    : loop_(loop),
      runtime_(std::make_unique<TaskRuntime>(loop, dataset, std::move(config),
                                             pool)) {}

FlRunResult FlEngine::Run() {
  runtime_->Begin();
  // The one-member case of the lockstep loop multi-tenant runs use: cloud
  // events first at each tick, shard loops advanced in parallel to a
  // bounded horizon, then the merge barrier.
  const std::vector<TaskRuntime*> members{runtime_.get()};
  sim::LockstepGroup(loop_, runtime_->pool())
      .Run(LockstepHooks(members), runtime_->feedback_guard());
  return runtime_->Finalize();
}

}  // namespace simdc::core
