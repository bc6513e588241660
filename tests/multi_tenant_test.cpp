// Multi-tenant plane suite: N concurrent FL tasks on one shared fleet
// must (a) keep every tenant bit-identical to its solo run whenever the
// fleet is contention-free, (b) stay bit-identical at every shard width
// and engine parallelism, (c) arbitrate contention deterministically
// (priority queueing, weighted-fair shares, admission rejection) and
// (d) report faithful per-task SLA rows.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/fl_engine.h"
#include "core/multi_tenant.h"
#include "data/synth_avazu.h"
#include "flow/rate_functions.h"
#include "golden_digest.h"

namespace simdc::core {
namespace {

data::FederatedDataset Dataset(std::size_t devices = 40) {
  data::SynthConfig config;
  config.num_devices = devices;
  config.records_per_device_mean = 10;
  config.num_test_devices = 8;
  config.hash_dim = 1u << 12;
  config.seed = 33;
  return data::GenerateSyntheticAvazu(config);
}

/// Width-invariant regime (pass-through ticks, disengaged rate limiter)
/// with message-keyed transmission dropout, so both the model math and
/// the dropout plane are exercised.
FlExperimentConfig BaseFl(std::uint64_t task_id) {
  FlExperimentConfig config;
  config.task = TaskId(task_id);
  config.rounds = 2;
  config.train.learning_rate = 0.05;
  config.train.epochs = 1;
  config.trigger = cloud::AggregationTrigger::kScheduled;
  config.schedule_period = Seconds(30.0);
  config.strategy = flow::RealtimeAccumulated{
      {1}, 0.25, flow::kShardWidthInvariantCapacity};
  config.seed = 100 + task_id;
  return config;
}

sched::TaskSpec Spec(std::uint64_t id, int priority, std::size_t phones,
                     std::size_t bundles = 10) {
  sched::TaskSpec spec;
  spec.id = TaskId(id);
  spec.name = "tenant-" + std::to_string(id);
  spec.priority = priority;
  spec.rounds = 2;
  sched::DeviceRequirement requirement;
  requirement.grade = device::DeviceGrade::kHigh;
  requirement.num_devices = 40;
  requirement.phones = phones;
  requirement.logical_bundles = bundles;
  spec.requirements.push_back(requirement);
  return spec;
}

TenantTask Tenant(std::uint64_t id, int priority, std::size_t phones,
                  const data::FederatedDataset& dataset) {
  TenantTask task;
  task.spec = Spec(id, priority, phones);
  task.fl = BaseFl(id);
  task.dataset = &dataset;
  return task;
}

struct MultiRun {
  std::vector<TenantResult> results;
  std::size_t peak_active = 0;
  std::size_t admission_passes = 0;
  sched::ResourceSnapshot final_resources;
};

MultiRun RunTenants(std::vector<TenantTask> tasks,
                    const sched::SchedulePolicy& policy = {},
                    std::size_t fleet_phones = 1000,
                    std::size_t bundles = 10000, std::size_t pool_width = 0) {
  sim::EventLoop loop;
  sched::ResourceManager resources(bundles, {fleet_phones, fleet_phones});
  std::unique_ptr<ThreadPool> pool;
  if (pool_width > 0) pool = std::make_unique<ThreadPool>(pool_width);
  MultiTenantEngine engine(loop, resources, pool.get());
  for (auto& task : tasks) {
    EXPECT_TRUE(engine.Submit(std::move(task)).ok());
  }
  MultiRun run;
  run.results = engine.Run(policy);
  run.peak_active = engine.peak_active_tenants();
  run.admission_passes = engine.admission_passes();
  run.final_resources = resources.Snapshot();
  return run;
}

FlRunResult RunSolo(const data::FederatedDataset& dataset,
                    FlExperimentConfig config) {
  sim::EventLoop loop;
  FlEngine engine(loop, dataset, std::move(config));
  return engine.Run();
}

void ExpectIdentical(const FlRunResult& a, const FlRunResult& b,
                     const std::string& context) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << context;
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round) << context;
    EXPECT_EQ(a.rounds[i].time, b.rounds[i].time) << context;
    EXPECT_EQ(a.rounds[i].clients, b.rounds[i].clients) << context;
    EXPECT_EQ(a.rounds[i].samples, b.rounds[i].samples) << context;
    EXPECT_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy) << context;
    EXPECT_EQ(a.rounds[i].test_logloss, b.rounds[i].test_logloss) << context;
  }
  EXPECT_EQ(a.messages_emitted, b.messages_emitted) << context;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << context;
  ASSERT_EQ(a.final_weights.size(), b.final_weights.size()) << context;
  EXPECT_EQ(0, std::memcmp(a.final_weights.data(), b.final_weights.data(),
                           a.final_weights.size() * sizeof(float)))
      << context;
  EXPECT_EQ(a.final_bias, b.final_bias) << context;
}

// ---------- Solo equivalence ----------

TEST(MultiTenantTest, SingleTenantMatchesSoloRun) {
  const auto dataset = Dataset();
  const auto solo = RunSolo(dataset, BaseFl(1));
  ASSERT_EQ(solo.rounds.size(), 2u);
  EXPECT_GT(solo.messages_dropped, 0u);

  auto run = RunTenants({Tenant(1, 5, 10, dataset)});
  ASSERT_EQ(run.results.size(), 1u);
  ASSERT_TRUE(run.results[0].completed);
  ExpectIdentical(solo, run.results[0].result, "single tenant");
  EXPECT_EQ(run.results[0].sla.rounds, 2u);
  EXPECT_EQ(run.results[0].sla.queue_wait_s, 0.0);
  EXPECT_EQ(run.peak_active, 1u);
}

TEST(MultiTenantTest, ContentionFreeTenantsMatchSoloInSequence) {
  // Ten tenants, each with a distinct seed, on a fleet that fits all of
  // them at once: every per-task result must equal the same task run
  // alone, and all ten must start at t=0 (no queue wait anywhere).
  const auto dataset = Dataset();
  std::vector<TenantTask> tasks;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    tasks.push_back(Tenant(id, static_cast<int>(id), 10, dataset));
  }
  auto run = RunTenants(std::move(tasks));
  ASSERT_EQ(run.results.size(), 10u);
  EXPECT_EQ(run.peak_active, 10u);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    const TenantResult& tenant = run.results[id - 1];
    ASSERT_TRUE(tenant.completed) << "task " << id;
    EXPECT_EQ(tenant.id, TaskId(id));
    ExpectIdentical(RunSolo(dataset, BaseFl(id)), tenant.result,
                    "task " + std::to_string(id));
    EXPECT_EQ(tenant.sla.queue_wait_s, 0.0) << "task " << id;
  }
  // Everything released at quiescence.
  EXPECT_EQ(run.final_resources.phones_free[0],
            run.final_resources.phones_total[0]);
  EXPECT_EQ(run.final_resources.logical_bundles_free,
            run.final_resources.logical_bundles_total);
}

// ---------- Shard-width / parallelism invariance ----------

/// golden::AddRun over every tenant's result, in task-id order.
std::uint64_t TenantsDigest(const std::vector<TenantResult>& results) {
  golden::Digest d;
  for (const TenantResult& tenant : results) golden::AddRun(d, tenant.result);
  return d.value();
}

TEST(MultiTenantTest, ShardWidthsBitIdenticalAcrossTenants) {
  // All tenants sharded at width w, for w in {1, 2, 4, 8}: per-task
  // results must match the width-1 reference bit for bit — the
  // cross-tenant merge barrier must not perturb any tenant's stream — and
  // every width must reproduce the golden digest over all four tenants.
  const auto dataset = Dataset();
  auto make_tasks = [&](std::size_t shards) {
    std::vector<TenantTask> tasks;
    for (std::uint64_t id = 1; id <= 4; ++id) {
      TenantTask task = Tenant(id, 5, 10, dataset);
      task.fl.shards = shards;
      tasks.push_back(std::move(task));
    }
    return tasks;
  };
  const auto reference = RunTenants(make_tasks(1));
  ASSERT_EQ(reference.results.size(), 4u);
  golden::ExpectGolden("multi_tenant.width_sweep",
                       TenantsDigest(reference.results), "shards=1");
  for (const std::size_t shards : {2u, 4u, 8u}) {
    auto run = RunTenants(make_tasks(shards));
    ASSERT_EQ(run.results.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(run.results[i].completed);
      ExpectIdentical(reference.results[i].result, run.results[i].result,
                      "shards=" + std::to_string(shards) + " task " +
                          std::to_string(i + 1));
    }
    golden::ExpectGolden("multi_tenant.width_sweep", TenantsDigest(run.results),
                         "shards=" + std::to_string(shards));
  }
}

TEST(MultiTenantTest, MixedShardWidthsEachMatchSolo) {
  // Tenants at DIFFERENT widths in the same run — the dynamic lockstep
  // driver must hold every tenant to its solo result simultaneously.
  const auto dataset = Dataset();
  const std::size_t widths[] = {1, 2, 4, 8};
  std::vector<TenantTask> tasks;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    TenantTask task = Tenant(id, 5, 10, dataset);
    task.fl.shards = widths[id - 1];
    tasks.push_back(std::move(task));
  }
  auto run = RunTenants(std::move(tasks));
  ASSERT_EQ(run.results.size(), 4u);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(run.results[id - 1].completed);
    // A solo run is width-invariant (existing contract), so the solo
    // run at the default width 1 is the reference for every width.
    ExpectIdentical(RunSolo(dataset, BaseFl(id)), run.results[id - 1].result,
                    "mixed width task " + std::to_string(id));
  }
}

TEST(MultiTenantTest, WorkerPoolDoesNotChangeResults) {
  const auto dataset = Dataset();
  auto make_tasks = [&] {
    std::vector<TenantTask> tasks;
    for (std::uint64_t id = 1; id <= 3; ++id) {
      TenantTask task = Tenant(id, 5, 10, dataset);
      task.fl.shards = 2;
      task.fl.parallelism = 0;  // inherit the engine pool (when given)
      tasks.push_back(std::move(task));
    }
    return tasks;
  };
  const auto sequential = RunTenants(make_tasks(), {}, 1000, 10000, 0);
  for (const std::size_t width : {2u, 4u, 8u}) {
    auto pooled = RunTenants(make_tasks(), {}, 1000, 10000, width);
    ASSERT_EQ(pooled.results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(pooled.results[i].completed);
      ExpectIdentical(sequential.results[i].result, pooled.results[i].result,
                      "pool width " + std::to_string(width));
    }
  }
}

/// Threads of this process, as /proc/self/task lists them.
std::size_t ThreadCount() {
  std::size_t threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST(MultiTenantTest, TenantsTrainOnTheEnginePoolWhateverTheirParallelism) {
  // A tenant whose parallelism differs from the engine pool's width must
  // not build a private pool: every runtime lives until the engine does,
  // so N such tenants would hold N private pools.
  const auto dataset = Dataset();
  struct Outcome {
    std::vector<TenantResult> results;
    std::size_t threads_before = 0;
    std::size_t threads_after = 0;
  };
  auto run = [&](std::size_t parallelism) {
    sim::EventLoop loop;
    sched::ResourceManager resources(10000, {1000, 1000});
    ThreadPool pool(2);
    MultiTenantEngine engine(loop, resources, &pool);
    for (std::uint64_t id = 1; id <= 4; ++id) {
      TenantTask task = Tenant(id, 5, 10, dataset);
      task.fl.parallelism = parallelism;
      EXPECT_TRUE(engine.Submit(std::move(task)).ok());
    }
    Outcome outcome;
    outcome.threads_before = ThreadCount();
    outcome.results = engine.Run();
    outcome.threads_after = ThreadCount();  // the engine is still alive
    return outcome;
  };
  const Outcome inherited = run(0);
  const Outcome asked = run(3);
  // An exiting thread of an earlier pool may still be listed at the first
  // read, never a new one at the second.
  EXPECT_LE(asked.threads_after, asked.threads_before);
  EXPECT_LE(inherited.threads_after, inherited.threads_before);
  ASSERT_EQ(asked.results.size(), 4u);
  ASSERT_EQ(inherited.results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const TenantResult& a = asked.results[i];
    const TenantResult& b = inherited.results[i];
    const std::string context = "tenant " + b.id.ToString();
    EXPECT_EQ(a.id, b.id) << context;
    ASSERT_TRUE(a.completed) << context;
    ASSERT_TRUE(b.completed) << context;
    ExpectIdentical(b.result, a.result, context);
    EXPECT_EQ(a.sla.rounds, b.sla.rounds) << context;
    EXPECT_EQ(a.sla.admitted, b.sla.admitted) << context;
    EXPECT_EQ(a.sla.completed, b.sla.completed) << context;
    EXPECT_EQ(a.sla.round_latency_p50_s, b.sla.round_latency_p50_s)
        << context;
  }
}

// ---------- Contention, admission control, fairness ----------

TEST(MultiTenantTest, ContentionQueuesLowerPriorityTenant) {
  // Fleet of 10 high-grade phones; two tenants wanting 8 each. The
  // priority-9 tenant runs first; the priority-1 tenant waits exactly
  // until the first completes, and its SLA row records the wait.
  const auto dataset = Dataset();
  auto run = RunTenants(
      {Tenant(1, 9, 8, dataset), Tenant(2, 1, 8, dataset)},
      sched::SchedulePolicy{}, /*fleet_phones=*/10);
  ASSERT_EQ(run.results.size(), 2u);
  ASSERT_TRUE(run.results[0].completed);
  ASSERT_TRUE(run.results[1].completed);
  EXPECT_EQ(run.peak_active, 1u);
  const TaskSlaReport& first = run.results[0].sla;
  const TaskSlaReport& second = run.results[1].sla;
  EXPECT_EQ(first.queue_wait_s, 0.0);
  EXPECT_GT(second.queue_wait_s, 0.0);
  EXPECT_EQ(second.admitted, first.completed);
  // The deferred tenant still reproduces its solo result, shifted in time.
  const auto solo = RunSolo(dataset, BaseFl(2));
  const FlRunResult& deferred = run.results[1].result;
  ASSERT_EQ(solo.rounds.size(), deferred.rounds.size());
  for (std::size_t i = 0; i < solo.rounds.size(); ++i) {
    EXPECT_EQ(deferred.rounds[i].time - second.admitted, solo.rounds[i].time);
    EXPECT_EQ(deferred.rounds[i].test_accuracy, solo.rounds[i].test_accuracy);
  }
  ASSERT_EQ(solo.final_weights.size(), deferred.final_weights.size());
  EXPECT_EQ(0, std::memcmp(solo.final_weights.data(),
                           deferred.final_weights.data(),
                           solo.final_weights.size() * sizeof(float)));
  EXPECT_EQ(run.final_resources.phones_free[0], 10u);
}

TEST(MultiTenantTest, OversizedDemandRejectedOthersRun) {
  const auto dataset = Dataset();
  auto run = RunTenants(
      {Tenant(1, 9, 5000, dataset), Tenant(2, 1, 10, dataset)},
      sched::SchedulePolicy{}, /*fleet_phones=*/1000);
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_FALSE(run.results[0].completed);
  EXPECT_TRUE(run.results[0].rejected);
  EXPECT_EQ(run.results[0].detail, "rejected by admission control");
  EXPECT_TRUE(run.results[1].completed);
}

TEST(MultiTenantTest, FleetShareCapRejectsHeavyTenant) {
  // max_fleet_share = 0.25 over a 200-phone fleet (100 per grade): a
  // 60-phone tenant exceeds its 50-phone cap and is rejected even though
  // the fleet could physically host it.
  const auto dataset = Dataset();
  sched::SchedulePolicy policy;
  policy.max_fleet_share = 0.25;
  auto run = RunTenants(
      {Tenant(1, 9, 60, dataset), Tenant(2, 1, 40, dataset)}, policy,
      /*fleet_phones=*/100);
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_TRUE(run.results[0].rejected);
  EXPECT_TRUE(run.results[1].completed);
}

TEST(MultiTenantTest, WeightedFairBreaksMutualDeadlock) {
  // Two tenants each demanding 150 of the 200 free phones: neither fits
  // its ~100-phone fair share, and with nothing running the fair pass
  // would starve both forever. The engine's fallback admits them in
  // priority order instead, one at a time.
  const auto dataset = Dataset();
  sched::SchedulePolicy policy;
  policy.mode = sched::ScheduleMode::kWeightedFair;
  auto run = RunTenants(
      {Tenant(1, 5, 150, dataset), Tenant(2, 5, 150, dataset)}, policy,
      /*fleet_phones=*/200);
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_TRUE(run.results[0].completed);
  EXPECT_TRUE(run.results[1].completed);
  EXPECT_EQ(run.peak_active, 1u);
  EXPECT_GT(run.results[1].sla.queue_wait_s, 0.0);
}

TEST(MultiTenantTest, WeightedFairAdmitsWithinShares) {
  // Four equal-weight tenants each demanding exactly a quarter of the
  // free phones all fit their fair shares and start together.
  const auto dataset = Dataset();
  sched::SchedulePolicy policy;
  policy.mode = sched::ScheduleMode::kWeightedFair;
  std::vector<TenantTask> tasks;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    tasks.push_back(Tenant(id, 5, 50, dataset));
  }
  auto run = RunTenants(std::move(tasks), policy, /*fleet_phones=*/200);
  ASSERT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.peak_active, 4u);
  for (const auto& tenant : run.results) {
    EXPECT_TRUE(tenant.completed);
    EXPECT_EQ(tenant.sla.queue_wait_s, 0.0);
  }
}

TEST(MultiTenantTest, DuplicateAndNullSubmissionsRejected) {
  const auto dataset = Dataset();
  sim::EventLoop loop;
  sched::ResourceManager resources(100, {100, 100});
  MultiTenantEngine engine(loop, resources);
  ASSERT_TRUE(engine.Submit(Tenant(1, 5, 10, dataset)).ok());
  EXPECT_FALSE(engine.Submit(Tenant(1, 5, 10, dataset)).ok());
  TenantTask null_dataset = Tenant(2, 5, 10, dataset);
  null_dataset.dataset = nullptr;
  EXPECT_FALSE(engine.Submit(std::move(null_dataset)).ok());
}

// ---------- Per-tenant policies and SLA rows ----------

TEST(MultiTenantTest, PerTenantLinkAndQuorumPoliciesAreDistinct) {
  // Tenant 1 runs lossy links with retries and quorum'd rounds; tenant 2
  // runs the clean defaults. In ONE multi-tenant run, their SLA rows must
  // reflect their OWN policies — the historical failure mode applied one
  // global LinkPolicy/quorum set to everyone.
  const auto dataset = Dataset();
  TenantTask lossy = Tenant(1, 5, 10, dataset);
  lossy.fl.link.transient_failure_probability = 0.4;
  lossy.fl.link.max_attempts = 3;
  lossy.fl.link.backoff_initial = Seconds(1.0);
  lossy.fl.round_quorum = 5;
  lossy.fl.round_deadline = Seconds(40.0);
  lossy.fl.round_extension = Seconds(20.0);
  TenantTask clean = Tenant(2, 5, 10, dataset);

  auto run = RunTenants({std::move(lossy), std::move(clean)});
  ASSERT_EQ(run.results.size(), 2u);
  ASSERT_TRUE(run.results[0].completed);
  ASSERT_TRUE(run.results[1].completed);
  EXPECT_GT(run.results[0].sla.retries, 0u);
  EXPECT_EQ(run.results[1].sla.retries, 0u);
  // And each still equals its solo run under its own policy.
  TenantTask lossy_again = Tenant(1, 5, 10, dataset);
  lossy_again.fl.link.transient_failure_probability = 0.4;
  lossy_again.fl.link.max_attempts = 3;
  lossy_again.fl.link.backoff_initial = Seconds(1.0);
  lossy_again.fl.round_quorum = 5;
  lossy_again.fl.round_deadline = Seconds(40.0);
  lossy_again.fl.round_extension = Seconds(20.0);
  ExpectIdentical(RunSolo(dataset, lossy_again.fl), run.results[0].result,
                  "lossy tenant vs solo");
}

TEST(MultiTenantTest, SlaRowsReportRoundLatencies) {
  const auto dataset = Dataset();
  auto run = RunTenants({Tenant(1, 5, 10, dataset)});
  ASSERT_EQ(run.results.size(), 1u);
  const TaskSlaReport& sla = run.results[0].sla;
  EXPECT_EQ(sla.task, TaskId(1));
  EXPECT_EQ(sla.rounds, 2u);
  EXPECT_GT(sla.round_latency_mean_s, 0.0);
  EXPECT_GT(sla.round_latency_max_s, 0.0);
  EXPECT_LE(sla.round_latency_p50_s, sla.round_latency_p95_s);
  EXPECT_LE(sla.round_latency_p95_s, sla.round_latency_p99_s);
  EXPECT_LE(sla.round_latency_p99_s, sla.round_latency_max_s);
  EXPECT_GT(sla.makespan_s, 0.0);
  EXPECT_GT(sla.messages_emitted, 0u);
}

TEST(MultiTenantTest, HundredTenantsCompleteDeterministically) {
  // Scale smoke: 100 tenants (the Fig. 7 ladder's top rung runs in the
  // bench with full width sweeps; here we pin determinism at width 1).
  const auto dataset = Dataset(20);
  auto make_tasks = [&] {
    std::vector<TenantTask> tasks;
    for (std::uint64_t id = 1; id <= 100; ++id) {
      TenantTask task = Tenant(id, static_cast<int>(id % 7), 2, dataset);
      task.fl.rounds = 1;
      tasks.push_back(std::move(task));
    }
    return tasks;
  };
  auto first = RunTenants(make_tasks(), {}, /*fleet_phones=*/50);
  auto again = RunTenants(make_tasks(), {}, /*fleet_phones=*/50);
  ASSERT_EQ(first.results.size(), 100u);
  ASSERT_EQ(again.results.size(), 100u);
  EXPECT_GT(first.peak_active, 1u);
  EXPECT_LT(first.peak_active, 100u);  // contention forces staggering
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(first.results[i].completed) << "task " << i + 1;
    ExpectIdentical(first.results[i].result, again.results[i].result,
                    "repeat run task " + std::to_string(i + 1));
    EXPECT_EQ(first.results[i].sla.queue_wait_s,
              again.results[i].sla.queue_wait_s);
  }
  EXPECT_EQ(first.final_resources.phones_free[0], 50u);
}

}  // namespace
}  // namespace simdc::core
