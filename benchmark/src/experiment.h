// Benchmark workloads: each is one closed batch — one fixed experiment,
// generated from the seed, submitted once and run to completion.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fl_engine.h"
#include "core/multi_tenant.h"
#include "data/example.h"
#include "sched/scheduler.h"

namespace simdc::bench {

inline constexpr std::array<const char*, 4> kWorkloads = {
    "fleet_wide", "train_heavy", "multi_tenant", "durable_churn"};

bool IsWorkload(const std::string& name);

/// The inputs of one experiment. Tenants point into `datasets`, so an
/// Experiment is move-only (a vector move keeps element addresses).
struct Experiment {
  Experiment() = default;
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;
  Experiment(Experiment&&) = default;
  Experiment& operator=(Experiment&&) = default;

  std::string workload;
  std::vector<data::FederatedDataset> datasets;
  /// Single-task workloads run `solo` on datasets[0] through FlEngine;
  /// multi-tenant ones submit `tenants` to MultiTenantEngine.
  bool multi_tenant = false;
  core::FlExperimentConfig solo;
  std::vector<core::TenantTask> tenants;
  std::size_t logical_bundles = 0;
  std::array<std::size_t, device::kNumGrades> phones{};
  sched::SchedulePolicy policy;

  /// Rounds every task is configured to run.
  std::size_t RoundsConfigured() const;
  /// Dataset and config of the first task (what the layer probes use).
  const data::FederatedDataset& FirstDataset() const;
  const core::FlExperimentConfig& FirstConfig() const;
};

/// Generates the workload's datasets and configs, a pure function of
/// (workload, seed, smoke). `pool_width` becomes every task's parallelism
/// (results do not depend on it); durable workloads journal into
/// `durable_dir`.
Experiment MakeExperiment(const std::string& workload, std::uint64_t seed,
                          bool smoke, std::size_t pool_width,
                          const std::string& durable_dir);

}  // namespace simdc::bench
