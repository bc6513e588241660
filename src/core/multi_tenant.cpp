#include "core/multi_tenant.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace simdc::core {

MultiTenantEngine::MultiTenantEngine(sim::EventLoop& loop,
                                     sched::ResourceManager& resources,
                                     ThreadPool* pool)
    : loop_(loop), resources_(resources), pool_(pool), scheduler_(resources) {}

Status MultiTenantEngine::Submit(TenantTask task) {
  if (task.dataset == nullptr) {
    return InvalidArgument("TenantTask: null dataset for " +
                           task.spec.id.ToString());
  }
  if (tenants_.count(task.spec.id) != 0) {
    return AlreadyExists("tenant already submitted: " +
                         task.spec.id.ToString());
  }
  // Per-task policies ride in task.fl; the engine pins the identity, so
  // the flow plane and the SLA rows agree on who the traffic belongs to,
  // and trains every tenant on its one pool: a runtime whose parallelism
  // differed from the pool's width would own a private pool for as long
  // as the engine keeps the runtime. Results never depend on the width.
  task.fl.task = task.spec.id;
  task.fl.parallelism = 0;
  if (Status queued = queue_.Submit(task.spec); !queued.ok()) return queued;
  Tenant tenant;
  tenant.submitted = loop_.Now();
  tenant.task = std::move(task);
  tenants_.emplace(tenant.task.spec.id, std::move(tenant));
  return Status::Ok();
}

void MultiTenantEngine::Admit(Tenant& tenant, SimTime now) {
  tenant.admitted = true;
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  tenant.runtime = std::make_unique<TaskRuntime>(
      loop_, *tenant.task.dataset, tenant.task.fl, pool_);
  const TaskId id = tenant.task.spec.id;
  admitted_.insert(std::upper_bound(admitted_.begin(), admitted_.end(), id,
                                    [](TaskId key, const TaskRuntime* r) {
                                      return key < r->config().task;
                                    }),
                   tenant.runtime.get());
  tenant.runtime->set_queue_times(tenant.submitted, now);
  Tenant* slot = &tenant;
  tenant.runtime->set_on_complete(
      [this, slot](SimTime when) { OnTenantComplete(*slot, when); });
  // Begin() starts round 0 at loop_.Now() — for tenants admitted by the
  // initial pass that is time 0, exactly what their solo run would see.
  tenant.runtime->Begin();
}

void MultiTenantEngine::OnTenantComplete(Tenant& tenant, SimTime when) {
  --active_;
  // Return the fleet slice, then re-arbitrate AS A CLOUD EVENT at the
  // completion time: the admission instant becomes part of the event
  // timeline (width- and parallelism-invariant) instead of depending on
  // where the driver's barrier boundaries happen to fall.
  if (const Status released = resources_.Release(tenant.frozen);
      !released.ok()) {
    SIMDC_LOG(kWarn, "MultiTenantEngine")
        << "release failed for " << tenant.task.spec.id.ToString() << ": "
        << released.ToString();
  }
  if (!queue_.empty()) {
    loop_.ScheduleAt(when, [this] { AdmissionPass(policy_); });
  }
}

void MultiTenantEngine::AdmissionPass(const sched::SchedulePolicy& policy) {
  ++admission_passes_;
  const SimTime now = loop_.Now();
  sched::ScheduleDecision decision = scheduler_.SchedulePassEx(queue_, policy);
  // Fair-share deadlock breaker: several queued tenants each demanding
  // more than their mutual fair share of an IDLE fleet would starve
  // forever (every pass grants each less than it needs). With nothing
  // running there is no fairness left to protect, so fall back to the
  // greedy priority pass, which admits the best-priority task that fits.
  if (policy.mode == sched::ScheduleMode::kWeightedFair &&
      decision.launched.empty() && active_ == 0 && !queue_.empty()) {
    sched::SchedulePolicy greedy = policy;
    greedy.mode = sched::ScheduleMode::kPriority;
    sched::ScheduleDecision retry = scheduler_.SchedulePassEx(queue_, greedy);
    decision.launched = std::move(retry.launched);
    for (auto& spec : retry.rejected) {
      decision.rejected.push_back(std::move(spec));
    }
  }
  for (const sched::TaskSpec& spec : decision.rejected) {
    Tenant& tenant = tenants_.at(spec.id);
    tenant.rejected = true;
  }
  // Launch in the scheduler's (priority desc, submission) order — the same
  // order their resources were frozen in, so the pass is one atomic
  // arbitration decision.
  for (const sched::TaskSpec& spec : decision.launched) {
    Tenant& tenant = tenants_.at(spec.id);
    tenant.frozen = sched::RequestFor(spec);
    Admit(tenant, now);
  }
}

std::vector<TenantResult> MultiTenantEngine::Run(
    const sched::SchedulePolicy& policy) {
  SIMDC_CHECK(!running_, "MultiTenantEngine::Run is not reentrant");
  running_ = true;
  policy_ = policy;
  // Lockstep feedback guard: the min over ALL submitted tenants, not just
  // active ones. A tenant admitted mid-barrier at time τ >= t0 emits its
  // first shard tick at >= τ + its own compute >= t0 + this guard >=
  // horizon, so the barrier's cloud-clock mirror stays monotone no matter
  // when admissions land. Using only the active tenants' min would let a
  // small-compute late admission produce a tick behind an already
  // mirrored clock. A shorter guard than a tenant's own only shortens how
  // far loops run ahead per barrier.
  SimDuration guard = 0;
  bool first = true;
  for (const auto& [id, tenant] : tenants_) {
    const SimDuration tenant_guard = FeedbackGuard(tenant.task.fl);
    guard = first ? tenant_guard : std::min(guard, tenant_guard);
    first = false;
  }
  // Initial arbitration before any event fires: contention-free tenants
  // all start round 0 at time 0, exactly like their solo runs.
  AdmissionPass(policy_);
  // Admissions (cloud events) grow admitted_ as the run goes; the group
  // picks new tenants' shard loops up at the next barrier.
  sim::LockstepGroup(loop_, pool_).Run(LockstepHooks(admitted_), guard);
  std::vector<TenantResult> results;
  results.reserve(tenants_.size());
  for (auto& [id, tenant] : tenants_) {
    TenantResult row;
    row.id = id;
    row.rejected = tenant.rejected;
    if (tenant.admitted) {
      SIMDC_CHECK(tenant.runtime->done(),
                  "MultiTenantEngine: tenant " << id.ToString()
                                               << " never completed");
      row.completed = true;
      row.result = tenant.runtime->Finalize();
      row.sla = tenant.runtime->Sla();
    } else if (tenant.rejected) {
      row.detail = "rejected by admission control";
    } else {
      row.detail = "never admitted";
    }
    results.push_back(std::move(row));
  }
  running_ = false;
  return results;
}

}  // namespace simdc::core
