#include "core/fl_engine.h"

#include <utility>
#include <vector>

namespace simdc::core {

FlEngine::FlEngine(sim::EventLoop& loop, const data::FederatedDataset& dataset,
                   FlExperimentConfig config, ThreadPool* pool)
    : TaskRuntime(loop, dataset, std::move(config), pool), loop_(loop) {}

FlRunResult FlEngine::Run() {
  Begin();
  // The one-member case of the lockstep loop multi-tenant runs use: cloud
  // events first at each tick, shard loops advanced in parallel to a
  // bounded horizon, then the merge barrier.
  const std::vector<TaskRuntime*> members{this};
  sim::LockstepGroup(loop_, pool())
      .Run(LockstepHooks(members), feedback_guard());
  return Finalize();
}

}  // namespace simdc::core
