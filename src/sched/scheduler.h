// Task Scheduler (§III-B).
//
// "Task Scheduler employs a greedy algorithm to schedule tasks from the
// queue, taking into account the current states of the resource pool from
// Resource Manager, demand resources, and the expected task benefits
// derived from the scheduling priority. It prioritizes tasks that meet
// resource requirements while maximizing the anticipated benefits."
//
// Multi-tenant extensions: SchedulePassEx adds a weighted-fair mode (any
// tenant's grab of the currently idle phones is bounded by its weighted
// max-min fair share — see SolveWeightedFairShares) and admission control
// (requests that can NEVER be satisfied — demand beyond fleet totals or
// the per-tenant fleet-share cap — are rejected permanently instead of
// waiting forever).
#pragma once

#include <vector>

#include "sched/resource_manager.h"
#include "sched/task.h"
#include "sched/task_queue.h"

namespace simdc::sched {

/// The resources a task spec asks the Resource Manager to freeze.
ResourceRequest RequestFor(const TaskSpec& task);

enum class ScheduleMode {
  /// Greedy priority order (the paper's §III-B algorithm): each candidate
  /// that fits the remaining pool is frozen, highest priority first.
  kPriority,
  /// Fairness mode: candidates are still walked in priority order, but a
  /// candidate is only admitted this pass if its phone demand fits within
  /// its weighted max-min fair share of the currently FREE phones
  /// (weight = max(1, priority)). A heavy tenant therefore cannot starve
  /// light ones at an admission barrier: whatever it cannot claim within
  /// its share stays free for the others.
  kWeightedFair,
};

struct SchedulePolicy {
  ScheduleMode mode = ScheduleMode::kPriority;
  /// Admission-control cap on one tenant's share of the fleet's TOTAL
  /// phones, in (0, 1]; 0 disables the cap. A request demanding more
  /// phones than max_fleet_share × total is rejected permanently (it
  /// could starve every other tenant while it runs).
  double max_fleet_share = 0.0;
};

struct ScheduleDecision {
  /// Tasks to launch now; their resources are frozen (caller releases).
  std::vector<TaskSpec> launched;
  /// Tasks removed permanently because no future pass can ever satisfy
  /// them: demand exceeds the fleet's totals, or the fleet-share cap.
  std::vector<TaskSpec> rejected;
};

class GreedyScheduler {
 public:
  explicit GreedyScheduler(ResourceManager& resources)
      : resources_(resources) {}

  /// One scheduling pass: walks the queue in priority order, freezing
  /// resources for every task that fits, and removes the tasks no future
  /// pass can satisfy. Launched tasks' resources are already frozen; the
  /// caller must Release them when each task finishes. kPriority is the
  /// paper's greedy pass; kWeightedFair bounds each tenant's grab of the
  /// idle phones to its fair share.
  ScheduleDecision SchedulePassEx(TaskQueue& queue,
                                  const SchedulePolicy& policy);

 private:
  ResourceManager& resources_;
};

}  // namespace simdc::sched
