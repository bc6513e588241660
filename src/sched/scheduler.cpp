#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "sched/allocation.h"

namespace simdc::sched {

namespace {

/// a + b, pinned at the largest size_t instead of wrapping: a sum that
/// large never fits, and a wrapped one could.
std::size_t SaturatingAdd(std::size_t a, std::size_t b) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return b > kMax - a ? kMax : a + b;
}

std::size_t TotalPhones(const ResourceRequest& request) {
  return std::accumulate(request.phones.begin(), request.phones.end(),
                         std::size_t{0}, SaturatingAdd);
}

/// True when no future pass can satisfy the request against `totals`
/// (frozen resources all released): permanent rejection, not back-pressure.
bool NeverFits(const ResourceRequest& request, const ResourceSnapshot& totals,
               double max_fleet_share) {
  if (request.logical_bundles > totals.logical_bundles_total) return true;
  for (std::size_t g = 0; g < request.phones.size(); ++g) {
    if (request.phones[g] > totals.phones_total[g]) return true;
  }
  if (max_fleet_share > 0.0) {
    const auto fleet = static_cast<double>(std::accumulate(
        totals.phones_total.begin(), totals.phones_total.end(),
        std::size_t{0}));
    if (static_cast<double>(TotalPhones(request)) >
        max_fleet_share * fleet) {
      return true;
    }
  }
  return false;
}

}  // namespace

ResourceRequest RequestFor(const TaskSpec& task) {
  ResourceRequest request;
  for (const auto& requirement : task.requirements) {
    request.logical_bundles =
        SaturatingAdd(request.logical_bundles, requirement.logical_bundles);
    std::size_t& phones = request.phones[device::GradeIndex(requirement.grade)];
    phones = SaturatingAdd(
        phones,
        SaturatingAdd(requirement.phones, requirement.benchmarking_phones));
  }
  return request;
}

ScheduleDecision GreedyScheduler::SchedulePassEx(TaskQueue& queue,
                                                 const SchedulePolicy& policy) {
  ScheduleDecision decision;
  const std::vector<TaskSpec> candidates = queue.SnapshotOrdered();

  // Fair shares are solved against the pool as it stands at the START of
  // the pass — one waterline for every candidate — so the outcome depends
  // only on (candidate set, free pool), not on admission order.
  std::vector<std::size_t> fair_share;
  if (policy.mode == ScheduleMode::kWeightedFair) {
    const ResourceSnapshot snapshot = resources_.Snapshot();
    const std::size_t free_phones = std::accumulate(
        snapshot.phones_free.begin(), snapshot.phones_free.end(),
        std::size_t{0});
    std::vector<TenantDemand> demands;
    demands.reserve(candidates.size());
    for (const auto& candidate : candidates) {
      TenantDemand demand;
      demand.demand = TotalPhones(RequestFor(candidate));
      demand.weight = static_cast<std::size_t>(
          std::max(1, candidate.priority));
      demands.push_back(demand);
    }
    fair_share = SolveWeightedFairShares(demands, free_phones);
  }

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const TaskSpec& candidate = candidates[i];
    const ResourceRequest request = RequestFor(candidate);
    if (NeverFits(request, resources_.Snapshot(), policy.max_fleet_share)) {
      if (auto task = queue.Remove(candidate.id)) {
        decision.rejected.push_back(std::move(*task));
      }
      continue;
    }
    if (policy.mode == ScheduleMode::kWeightedFair &&
        TotalPhones(request) > fair_share[i]) {
      continue;  // over its fair share this pass; stays queued
    }
    if (!resources_.Freeze(request).ok()) continue;
    auto task = queue.Remove(candidate.id);
    if (!task) {
      // Raced away (removed elsewhere); undo the freeze.
      (void)resources_.Release(request);
      continue;
    }
    decision.launched.push_back(std::move(*task));
  }
  return decision;
}

}  // namespace simdc::sched
