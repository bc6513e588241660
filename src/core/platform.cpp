#include "core/platform.h"

#include <algorithm>
#include <thread>

#include "common/log.h"
#include "device/fleet.h"

namespace simdc::core {
namespace {

std::size_t WorkerCount(std::size_t configured) {
  if (configured != 0) return configured;
  return std::max(2u, std::thread::hardware_concurrency());
}

}  // namespace

Platform::Platform(PlatformConfig config)
    : config_(config),
      workers_(WorkerCount(config.worker_threads)),
      phone_mgr_(loop_),
      resources_(config.logical_unit_bundles, {}),
      scheduler_(resources_) {
  // The resource pool holds exactly the phones registered, per grade.
  const std::vector<device::PhoneSpec> cluster =
      device::MakeDefaultCluster(config.seed);
  phone_mgr_.RegisterFleet(cluster);
  for (const device::PhoneSpec& spec : cluster) {
    resources_.AddPhones(spec.grade, 1);
  }
  phone_mgr_.set_metrics_sink(&metrics_);
}

Status Platform::SubmitTask(sched::TaskSpec task) {
  if (!task.id.valid()) task.id = NextTaskId();
  return queue_.Submit(std::move(task));
}

std::vector<TaskReport> Platform::RunQueuedTasks(const ExecOptions& options) {
  finished_reports_.clear();
  SchedulerPass(options);
  loop_.Run();
  return finished_reports_;
}

void Platform::SchedulerPass(const ExecOptions& options) {
  sched::ScheduleDecision decision = scheduler_.SchedulePassEx(queue_, {});
  // Admission control removed these from the queue for good: report each
  // as failed now instead of dropping it.
  for (const sched::TaskSpec& task : decision.rejected) {
    TaskReport report;
    report.id = task.id;
    report.detail =
        "rejected by admission control: demand exceeds the platform's "
        "total resources";
    report.started = report.finished = loop_.Now();
    finished_reports_.push_back(std::move(report));
  }
  for (auto& task : decision.launched) {
    LaunchTask(std::move(task), options);
  }
}

void Platform::LaunchTask(sched::TaskSpec task, const ExecOptions& options) {
  auto running = std::make_shared<RunningTask>();
  running->frozen = sched::RequestFor(task);
  running->report.id = task.id;
  running->report.started = loop_.Now();

  // Build per-grade allocation inputs from the spec.
  std::vector<sched::GradeAllocationInput> grades;
  for (const auto& requirement : task.requirements) {
    const device::GradeSpec spec = device::DefaultGradeSpec(requirement.grade);
    sched::GradeAllocationInput input;
    input.total_devices = requirement.num_devices;
    input.benchmarking = requirement.benchmarking_phones;
    input.logical_bundles = requirement.logical_bundles;
    input.bundles_per_device = spec.unit_bundles;
    input.phones = requirement.phones;
    input.alpha_s = spec.alpha_s;
    input.beta_s = spec.beta_s;
    input.lambda_s = spec.lambda_s;
    grades.push_back(input);
  }

  sched::AllocationResult allocation;
  if (options.use_optimizer) {
    auto solved = sched::SolveHybridAllocation(grades, /*prefer_logical=*/true);
    if (!solved.ok()) {
      running->report.ok = false;
      running->report.detail = solved.error().ToString();
      running->report.finished = loop_.Now();
      (void)resources_.Release(running->frozen);
      finished_reports_.push_back(running->report);
      return;
    }
    allocation = std::move(*solved);
  } else {
    allocation.logical_devices =
        sched::FixedRatioAllocation(grades, options.fixed_logical_ratio);
    allocation.total_seconds =
        sched::PredictMakespan(grades, allocation.logical_devices,
                               &allocation.logical_seconds,
                               &allocation.device_seconds);
  }
  running->report.allocation = allocation;
  running->report.ok = true;
  running->spec = task;
  running->report.benchmarking.resize(task.requirements.size());

  // Launch one phone job + one logical-completion event per grade.
  for (std::size_t g = 0; g < task.requirements.size(); ++g) {
    const auto& requirement = task.requirements[g];
    const device::GradeSpec grade_spec =
        device::DefaultGradeSpec(requirement.grade);
    const std::size_t x = allocation.logical_devices[g];
    const std::size_t on_phones =
        requirement.num_devices - requirement.benchmarking_phones - x;

    // Device Simulation part.
    if (on_phones > 0 || requirement.benchmarking_phones > 0) {
      device::PhoneJob job;
      job.task = task.id;
      job.grade = requirement.grade;
      job.devices_to_simulate = on_phones;
      job.computing_phones = on_phones > 0 ? requirement.phones : 0;
      job.benchmarking_phones = requirement.benchmarking_phones;
      job.rounds = task.rounds;
      job.round_duration_s = grade_spec.beta_s;
      job.startup_s = grade_spec.lambda_s;
      job.aggregation_wait_s = options.aggregation_wait_s;
      job.download_bytes = options.download_bytes;
      job.upload_bytes = options.upload_bytes;
      job.sample_period = options.sample_period;
      ++running->parts_pending;
      job.on_complete = [this, running, options](TaskId, SimTime) {
        FinishPart(running, options);
      };
      auto handle = phone_mgr_.SubmitJob(job);
      if (!handle.ok()) {
        --running->parts_pending;
        running->report.ok = false;
        running->report.detail = handle.error().ToString();
      } else {
        running->report.benchmarking[g] = handle->benchmarking;
      }
    }

    // Logical Simulation part (cost-modelled: Tl per round × rounds).
    if (x > 0) {
      const std::size_t batches =
          (grade_spec.unit_bundles * x + requirement.logical_bundles - 1) /
          std::max<std::size_t>(1, requirement.logical_bundles);
      const double seconds_per_round =
          static_cast<double>(batches) * grade_spec.alpha_s;
      const double total =
          seconds_per_round * static_cast<double>(task.rounds);
      ++running->parts_pending;
      loop_.ScheduleAfter(Seconds(total), [this, running, options] {
        FinishPart(running, options);
      });
    }
  }

  if (running->parts_pending == 0) {
    // Degenerate task (no devices anywhere): finish immediately.
    running->report.finished = loop_.Now();
    (void)resources_.Release(running->frozen);
    finished_reports_.push_back(running->report);
    SchedulerPass(options);
  }
}

void Platform::FinishPart(const std::shared_ptr<RunningTask>& running,
                          const ExecOptions& options) {
  if (--running->parts_pending > 0) return;
  running->report.finished = loop_.Now();
  (void)resources_.Release(running->frozen);
  finished_reports_.push_back(running->report);
  // Freed resources may unblock queued tasks — run another greedy pass.
  SchedulerPass(options);
}

FlRunResult Platform::RunFlExperiment(const data::FederatedDataset& dataset,
                                      FlExperimentConfig config) {
  // The engine resolves config.parallelism against the shared pool: it
  // ignores it when sequential is forced, reuses it when the width
  // matches, and owns a private pool otherwise.
  FlEngine engine(loop_, dataset, std::move(config), &workers_);
  // Durable runs checkpoint the platform's metrics database alongside the
  // aggregator so a resumed experiment reports identical rows.
  engine.set_metrics_database(&metrics_);
  return engine.Run();
}

std::vector<TenantResult> Platform::RunMultiTenantExperiment(
    std::vector<TenantTask> tasks, const sched::SchedulePolicy& policy) {
  MultiTenantEngine engine(loop_, resources_, &workers_);
  for (TenantTask& task : tasks) {
    if (const Status submitted = engine.Submit(std::move(task));
        !submitted.ok()) {
      SIMDC_LOG(kWarn, "Platform")
          << "multi-tenant submit failed: " << submitted.ToString();
    }
  }
  return engine.Run(policy);
}

}  // namespace simdc::core
