// Unit + property tests for the scheduler module: the hybrid allocation
// optimizer (verified against brute force), task queue, resource manager,
// and greedy scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <thread>

#include "common/rng.h"
#include "device/fleet.h"
#include "phonemgr/phone_mgr.h"
#include "sched/allocation.h"
#include "sched/resource_manager.h"
#include "sched/scheduler.h"
#include "sched/task_queue.h"
#include "sim/event_loop.h"

namespace simdc::sched {
namespace {

using device::DeviceGrade;

GradeAllocationInput HighGrade(std::size_t n, std::size_t q = 0) {
  GradeAllocationInput g;
  g.total_devices = n;
  g.benchmarking = q;
  g.logical_bundles = 80;   // f: 10 concurrent High devices (k=8)
  g.bundles_per_device = 8;
  g.phones = 4;
  g.alpha_s = 2.4;
  g.beta_s = 1.6;
  g.lambda_s = 15.0;
  return g;
}

GradeAllocationInput LowGrade(std::size_t n, std::size_t q = 0) {
  GradeAllocationInput g;
  g.total_devices = n;
  g.benchmarking = q;
  g.logical_bundles = 40;
  g.bundles_per_device = 4;
  g.phones = 6;
  g.alpha_s = 5.2;
  g.beta_s = 3.8;
  g.lambda_s = 21.0;
  return g;
}

// ---------- PredictMakespan ----------

TEST(PredictMakespanTest, MatchesHandComputation) {
  // x=20 of 30 High devices logical: ceil(8·20/80)·2.4 = 2·2.4 = 4.8 s;
  // 10 on 4 phones: ceil(10/4)·1.6 + 15 = 19.8 s.
  double tl = 0, tp = 0;
  const double t =
      PredictMakespan({HighGrade(30)}, {20}, &tl, &tp);
  EXPECT_DOUBLE_EQ(tl, 4.8);
  EXPECT_DOUBLE_EQ(tp, 19.8);
  EXPECT_DOUBLE_EQ(t, 19.8);
}

TEST(PredictMakespanTest, AllLogicalHasNoPhoneTime) {
  double tl = 0, tp = 0;
  PredictMakespan({HighGrade(30)}, {30}, &tl, &tp);
  EXPECT_DOUBLE_EQ(tp, 0.0);  // no devices, no benchmarking → no λ
}

TEST(PredictMakespanTest, BenchmarkingAlwaysCostsLambda) {
  double tl = 0, tp = 0;
  PredictMakespan({HighGrade(30, /*q=*/2)}, {28}, &tl, &tp);
  EXPECT_DOUBLE_EQ(tp, 1.6 + 15.0);  // benchmarking phones still run
}

TEST(PredictMakespanTest, OverAllocationClamps) {
  // Asking for more logical devices than placeable clamps to placeable.
  const double t1 = PredictMakespan({HighGrade(10)}, {10});
  const double t2 = PredictMakespan({HighGrade(10)}, {999});
  EXPECT_DOUBLE_EQ(t1, t2);
}

// ---------- Optimizer vs brute force (design decision D1) ----------

struct AllocationCase {
  std::vector<GradeAllocationInput> grades;
  std::string name;
};

class AllocationPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocationPropertyTest, OptimizerMatchesBruteForce) {
  // Randomized small instances: the binary-search optimizer must find the
  // same optimal makespan as exhaustive search (and the same Σx under the
  // prefer-logical tie-break).
  Rng rng(GetParam());
  std::vector<GradeAllocationInput> grades;
  const std::size_t c = 1 + static_cast<std::size_t>(rng.UniformInt(0, 1));
  for (std::size_t i = 0; i < c; ++i) {
    GradeAllocationInput g;
    g.total_devices = static_cast<std::size_t>(rng.UniformInt(1, 18));
    g.benchmarking = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(g.total_devices) / 3));
    g.bundles_per_device = static_cast<std::size_t>(rng.UniformInt(1, 8));
    g.logical_bundles = static_cast<std::size_t>(rng.UniformInt(0, 40));
    g.phones = static_cast<std::size_t>(rng.UniformInt(0, 5));
    g.alpha_s = rng.Uniform(0.5, 6.0);
    g.beta_s = rng.Uniform(0.5, 6.0);
    g.lambda_s = rng.Uniform(0.0, 25.0);
    if (g.logical_bundles == 0 && g.phones == 0) g.phones = 1;
    grades.push_back(g);
  }

  for (const bool prefer_logical : {true, false}) {
    auto fast = SolveHybridAllocation(grades, prefer_logical);
    auto slow = BruteForceAllocation(grades, prefer_logical);
    ASSERT_EQ(fast.ok(), slow.ok());
    if (!fast.ok()) continue;
    EXPECT_NEAR(fast->total_seconds, slow->total_seconds, 1e-6)
        << "prefer_logical=" << prefer_logical;
    std::size_t sum_fast = 0, sum_slow = 0;
    for (std::size_t x : fast->logical_devices) sum_fast += x;
    for (std::size_t x : slow->logical_devices) sum_slow += x;
    EXPECT_EQ(sum_fast, sum_slow) << "prefer_logical=" << prefer_logical;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AllocationPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(AllocationTest, DuplicateBoundariesAcrossGradesMatchBruteForce) {
  // Regression for the candidate-generation rewrite (flat vector + sort +
  // unique instead of std::set): identical grades produce every candidate
  // makespan several times over, and boundary values coincide across the
  // logical (j·α) and phone (j·β + λ) series. The dedup must not lose or
  // duplicate a feasible T.
  GradeAllocationInput g = HighGrade(12, /*q=*/1);
  g.alpha_s = 2.0;
  g.beta_s = 2.0;   // phone batches land on the same grid as logical ones
  g.lambda_s = 4.0; // ... offset by an exact multiple of the batch size
  const std::vector<GradeAllocationInput> grades = {g, g, g};
  for (const bool prefer_logical : {true, false}) {
    auto fast = SolveHybridAllocation(grades, prefer_logical);
    auto slow = BruteForceAllocation(grades, prefer_logical);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_NEAR(fast->total_seconds, slow->total_seconds, 1e-9)
        << "prefer_logical=" << prefer_logical;
  }
}

TEST(AllocationTest, SingleCandidateDegenerateInstances) {
  // Post-rewrite edge cases where the candidate vector is tiny: a grade
  // with nothing placeable (all devices benchmarking) and a grade whose
  // only resource is the logical cluster.
  GradeAllocationInput all_bench = HighGrade(2, /*q=*/2);
  auto result = SolveHybridAllocation({all_bench});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->total_seconds,
                   all_bench.beta_s + all_bench.lambda_s);

  GradeAllocationInput logical_only = HighGrade(6);
  logical_only.phones = 0;
  auto fast = SolveHybridAllocation({logical_only});
  auto slow = BruteForceAllocation({logical_only});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_NEAR(fast->total_seconds, slow->total_seconds, 1e-9);
}

TEST(AllocationTest, OptimizerBeatsOrTiesFixedRatios) {
  // Fig. 7's claim: the optimizer is never slower than Types 1–5.
  const std::vector<GradeAllocationInput> grades = {HighGrade(100, 5),
                                                    LowGrade(100, 5)};
  auto optimal = SolveHybridAllocation(grades);
  ASSERT_TRUE(optimal.ok());
  for (const double ratio : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    const auto fixed = FixedRatioAllocation(grades, ratio);
    const double t = PredictMakespan(grades, fixed);
    EXPECT_LE(optimal->total_seconds, t + 1e-9) << "ratio=" << ratio;
  }
}

TEST(AllocationTest, PreferLogicalMaximizesLogicalShare) {
  const std::vector<GradeAllocationInput> grades = {HighGrade(40)};
  auto logical = SolveHybridAllocation(grades, /*prefer_logical=*/true);
  auto phones = SolveHybridAllocation(grades, /*prefer_logical=*/false);
  ASSERT_TRUE(logical.ok());
  ASSERT_TRUE(phones.ok());
  EXPECT_NEAR(logical->total_seconds, phones->total_seconds, 1e-9);
  EXPECT_GE(logical->logical_devices[0], phones->logical_devices[0]);
}

TEST(AllocationTest, NoPhonesForcesAllLogical) {
  auto g = HighGrade(20);
  g.phones = 0;
  auto result = SolveHybridAllocation({g});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->logical_devices[0], 20u);
}

TEST(AllocationTest, NoBundlesForcesAllPhones) {
  auto g = HighGrade(20);
  g.logical_bundles = 0;
  auto result = SolveHybridAllocation({g});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->logical_devices[0], 0u);
}

TEST(AllocationTest, NoResourcesAtAllFails) {
  auto g = HighGrade(20);
  g.phones = 0;
  g.logical_bundles = 0;
  EXPECT_FALSE(SolveHybridAllocation({g}).ok());
}

TEST(AllocationTest, EmptyAndInvalidInputs) {
  EXPECT_FALSE(SolveHybridAllocation({}).ok());
  auto g = HighGrade(5);
  g.benchmarking = 6;
  EXPECT_FALSE(SolveHybridAllocation({g}).ok());
}

TEST(AllocationTest, ZeroDevicesIsTrivial) {
  auto result = SolveHybridAllocation({HighGrade(0)});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->total_seconds, 0.0);
}

TEST(AllocationTest, LargeScaleRunsFast) {
  // 10,000 devices per grade — candidate set stays manageable.
  auto high = HighGrade(10000, 5);
  high.logical_bundles = 200;
  high.phones = 17;
  auto low = LowGrade(10000, 5);
  low.phones = 13;
  auto result = SolveHybridAllocation({high, low});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_seconds, 0.0);
  // Both venues should be saturated near the optimum (no idle side).
  EXPECT_GT(result->logical_devices[0], 0u);
  EXPECT_LT(result->logical_devices[0], 10000u);
}

TEST(FixedRatioTest, EndpointsAndRounding) {
  const std::vector<GradeAllocationInput> grades = {HighGrade(10, 2)};
  EXPECT_EQ(FixedRatioAllocation(grades, 1.0)[0], 8u);  // placeable = 8
  EXPECT_EQ(FixedRatioAllocation(grades, 0.0)[0], 0u);
  EXPECT_EQ(FixedRatioAllocation(grades, 0.5)[0], 4u);
}

// ---------- TaskQueue ----------

TaskSpec MakeTask(std::uint64_t id, int priority) {
  TaskSpec task;
  task.id = TaskId(id);
  task.priority = priority;
  DeviceRequirement requirement;
  requirement.grade = DeviceGrade::kHigh;
  requirement.num_devices = 10;
  requirement.logical_bundles = 16;
  requirement.phones = 2;
  task.requirements.push_back(requirement);
  return task;
}

TEST(TaskQueueTest, PriorityOrderWithFifoTieBreak) {
  TaskQueue queue;
  ASSERT_TRUE(queue.Submit(MakeTask(1, 0)).ok());
  ASSERT_TRUE(queue.Submit(MakeTask(2, 5)).ok());
  ASSERT_TRUE(queue.Submit(MakeTask(3, 5)).ok());
  ASSERT_TRUE(queue.Submit(MakeTask(4, 1)).ok());
  const auto ordered = queue.SnapshotOrdered();
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(ordered[0].id, TaskId(2));  // priority 5, submitted first
  EXPECT_EQ(ordered[1].id, TaskId(3));
  EXPECT_EQ(ordered[2].id, TaskId(4));
  EXPECT_EQ(ordered[3].id, TaskId(1));
}

TEST(TaskQueueTest, DuplicateSubmitRejected) {
  TaskQueue queue;
  ASSERT_TRUE(queue.Submit(MakeTask(1, 0)).ok());
  EXPECT_FALSE(queue.Submit(MakeTask(1, 3)).ok());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(TaskQueueTest, RemoveSpecific) {
  TaskQueue queue;
  ASSERT_TRUE(queue.Submit(MakeTask(1, 0)).ok());
  ASSERT_TRUE(queue.Submit(MakeTask(2, 0)).ok());
  auto removed = queue.Remove(TaskId(1));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, TaskId(1));
  EXPECT_FALSE(queue.Contains(TaskId(1)));
  EXPECT_FALSE(queue.Remove(TaskId(1)).has_value());
  EXPECT_EQ(queue.size(), 1u);
}

// ---------- ResourceManager ----------

TEST(ResourceManagerTest, FreezeReleaseRoundTrip) {
  ResourceManager manager(100, {4, 6});
  ResourceRequest request;
  request.logical_bundles = 60;
  request.phones = {2, 3};
  EXPECT_TRUE(manager.Fits(request));
  ASSERT_TRUE(manager.Freeze(request).ok());
  const auto snapshot = manager.Snapshot();
  EXPECT_EQ(snapshot.logical_bundles_free, 40u);
  EXPECT_EQ(snapshot.phones_free[0], 2u);
  EXPECT_EQ(snapshot.phones_free[1], 3u);
  ASSERT_TRUE(manager.Release(request).ok());
  EXPECT_EQ(manager.Snapshot().logical_bundles_free, 100u);
}

TEST(ResourceManagerTest, FreezeIsAllOrNothing) {
  ResourceManager manager(10, {1, 1});
  ResourceRequest request;
  request.logical_bundles = 5;
  request.phones = {2, 0};  // too many High phones
  EXPECT_FALSE(manager.Freeze(request).ok());
  EXPECT_EQ(manager.Snapshot().logical_bundles_free, 10u);  // untouched
}

TEST(ResourceManagerTest, OverReleaseClampsWithError) {
  ResourceManager manager(10, {2, 2});
  ResourceRequest request;
  request.logical_bundles = 4;
  ASSERT_TRUE(manager.Freeze(request).ok());
  ResourceRequest big;
  big.logical_bundles = 9;
  EXPECT_FALSE(manager.Release(big).ok());
  EXPECT_EQ(manager.Snapshot().logical_bundles_free, 10u);
}

TEST(ResourceManagerTest, DynamicScaling) {
  ResourceManager manager(10, {2, 2});
  manager.ScaleUpLogical(10);
  EXPECT_EQ(manager.Snapshot().logical_bundles_total, 20u);
  ResourceRequest request;
  request.logical_bundles = 15;
  ASSERT_TRUE(manager.Freeze(request).ok());
  EXPECT_FALSE(manager.ScaleDownLogical(10).ok());  // below in-use
  ASSERT_TRUE(manager.Release(request).ok());
  EXPECT_TRUE(manager.ScaleDownLogical(10).ok());
  manager.AddPhones(DeviceGrade::kLow, 3);
  EXPECT_EQ(manager.Snapshot().phones_total[1], 5u);
  EXPECT_TRUE(manager.RemovePhones(DeviceGrade::kLow, 5).ok());
  EXPECT_FALSE(manager.RemovePhones(DeviceGrade::kLow, 1).ok());
}

TEST(ResourceManagerTest, HugeRequestsNeverWrapIntoAFit) {
  // A spec may ask for 2^63-1 bundles per grade, so two requirements sum
  // to 2^64-2. With 10 of 100 bundles in use, `used + request` wraps to 8
  // and would fit, and Freeze would leave 92 free instead of 90.
  ResourceManager manager(100, {50, 50});
  ResourceRequest in_use;
  in_use.logical_bundles = 10;
  in_use.phones = {5, 5};
  ASSERT_TRUE(manager.Freeze(in_use).ok());

  constexpr std::size_t kSpecMax = std::numeric_limits<std::int64_t>::max();
  TaskSpec task = MakeTask(1, 0);
  task.requirements[0].logical_bundles = kSpecMax;
  DeviceRequirement low = task.requirements[0];
  low.grade = DeviceGrade::kLow;
  task.requirements.push_back(low);
  const ResourceRequest bundles = RequestFor(task);
  ASSERT_EQ(bundles.logical_bundles, 2 * kSpecMax);
  EXPECT_FALSE(manager.Fits(bundles));
  EXPECT_FALSE(manager.Freeze(bundles).ok());
  EXPECT_EQ(manager.Snapshot().logical_bundles_free, 90u);

  // The same holds for each phone grade.
  for (std::size_t g = 0; g < device::kNumGrades; ++g) {
    ResourceRequest phones;
    phones.phones[g] = 2 * kSpecMax;
    EXPECT_FALSE(manager.Fits(phones)) << "grade " << g;
    EXPECT_FALSE(manager.Freeze(phones).ok()) << "grade " << g;
    EXPECT_EQ(manager.Snapshot().phones_free[g], 45u) << "grade " << g;
  }
}

// ---------- GreedyScheduler ----------

TEST(GreedySchedulerTest, LaunchesHighestPriorityThatFits) {
  ResourceManager manager(40, {4, 6});
  GreedyScheduler scheduler(manager);
  TaskQueue queue;
  // Task 2 (priority 9) wants everything; task 1 (priority 1) is small.
  auto big = MakeTask(2, 9);
  big.requirements[0].logical_bundles = 40;
  big.requirements[0].phones = 4;
  ASSERT_TRUE(queue.Submit(MakeTask(1, 1)).ok());
  ASSERT_TRUE(queue.Submit(big).ok());

  const auto launched = scheduler.SchedulePassEx(queue, {}).launched;
  // Big task frozen first (priority), small one no longer fits.
  ASSERT_EQ(launched.size(), 1u);
  EXPECT_EQ(launched[0].id, TaskId(2));
  EXPECT_TRUE(queue.Contains(TaskId(1)));

  // After releasing, the next pass launches the small task.
  ASSERT_TRUE(manager.Release(RequestFor(launched[0])).ok());
  const auto second = scheduler.SchedulePassEx(queue, {}).launched;
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, TaskId(1));
}

TEST(GreedySchedulerTest, LaunchesMultipleWhenAllFit) {
  ResourceManager manager(100, {8, 8});
  GreedyScheduler scheduler(manager);
  TaskQueue queue;
  ASSERT_TRUE(queue.Submit(MakeTask(1, 1)).ok());
  ASSERT_TRUE(queue.Submit(MakeTask(2, 2)).ok());
  const auto launched = scheduler.SchedulePassEx(queue, {}).launched;
  EXPECT_EQ(launched.size(), 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(RequestForTest, SumsAcrossRequirements) {
  TaskSpec task = MakeTask(1, 0);
  DeviceRequirement low;
  low.grade = DeviceGrade::kLow;
  low.num_devices = 5;
  low.logical_bundles = 8;
  low.phones = 1;
  low.benchmarking_phones = 2;
  task.requirements.push_back(low);
  const auto request = RequestFor(task);
  EXPECT_EQ(request.logical_bundles, 24u);
  EXPECT_EQ(request.phones[0], 2u);
  EXPECT_EQ(request.phones[1], 3u);  // phones + benchmarking
}

TEST(TaskStateTest, Names) {
  EXPECT_STREQ(ToString(TaskState::kQueued), "Queued");
  EXPECT_STREQ(ToString(TaskState::kFailed), "Failed");
}

TEST(OperatorFlowTest, DefaultIsDownloadTrainUpload) {
  const auto flow = DefaultFlOperatorFlow();
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow[0].kind, OperatorStep::Kind::kDownload);
  EXPECT_EQ(flow[1].kind, OperatorStep::Kind::kTrain);
  EXPECT_EQ(flow[2].kind, OperatorStep::Kind::kUpload);
}

// ---------- SolveWeightedFairShares ----------

TEST(WeightedFairSharesTest, AmpleCapacityMeetsEveryDemand) {
  const auto shares = SolveWeightedFairShares(
      {{30, 1}, {20, 5}, {10, 2}}, /*capacity=*/100);
  EXPECT_EQ(shares, (std::vector<std::size_t>{30, 20, 10}));
}

TEST(WeightedFairSharesTest, ScarcityWaterFillsEqualWeights) {
  // Demands {90, 30} over 100: sweep 1 grants {50, 30}; the satisfied
  // tenant leaves and the remaining 20 tops tenant 0 up to 70.
  const auto shares =
      SolveWeightedFairShares({{90, 5}, {30, 5}}, /*capacity=*/100);
  EXPECT_EQ(shares, (std::vector<std::size_t>{70, 30}));
}

TEST(WeightedFairSharesTest, WeightsSkewTheSplit) {
  const auto shares =
      SolveWeightedFairShares({{60, 2}, {60, 1}}, /*capacity=*/90);
  EXPECT_EQ(shares, (std::vector<std::size_t>{60, 30}));
}

TEST(WeightedFairSharesTest, ZeroWeightTreatedAsOne) {
  const auto shares =
      SolveWeightedFairShares({{50, 0}, {50, 0}}, /*capacity=*/50);
  EXPECT_EQ(shares, (std::vector<std::size_t>{25, 25}));
}

TEST(WeightedFairSharesTest, IntegerStarvationFallsBackToSingleUnits) {
  // One unit over two equal tenants: quotas floor to zero, so the
  // deterministic single-unit fallback hands it to the first index.
  const auto shares =
      SolveWeightedFairShares({{5, 1}, {5, 1}}, /*capacity=*/1);
  EXPECT_EQ(shares, (std::vector<std::size_t>{1, 0}));
}

TEST(WeightedFairSharesTest, EmptyAndZeroCapacity) {
  EXPECT_TRUE(SolveWeightedFairShares({}, 10).empty());
  EXPECT_EQ(SolveWeightedFairShares({{5, 1}}, 0),
            (std::vector<std::size_t>{0}));
}

// ---------- SchedulePassEx: fairness + admission control ----------

TEST(SchedulePassExTest, WeightedFairHoldsBackOverShareTenant) {
  ResourceManager manager(1000, {100, 10});
  GreedyScheduler scheduler(manager);
  TaskQueue queue;
  auto big = MakeTask(1, 5);
  big.requirements[0].phones = 90;
  auto small = MakeTask(2, 5);
  small.requirements[0].phones = 30;
  ASSERT_TRUE(queue.Submit(big).ok());
  ASSERT_TRUE(queue.Submit(small).ok());

  SchedulePolicy policy;
  policy.mode = ScheduleMode::kWeightedFair;
  const auto decision = scheduler.SchedulePassEx(queue, policy);
  // Fair shares over the 110 free phones... demand is counted in phones:
  // {90, 30} against 110 free → shares {80, 30}: the big tenant exceeds
  // its share and stays QUEUED (not rejected); the small one launches.
  ASSERT_EQ(decision.launched.size(), 1u);
  EXPECT_EQ(decision.launched[0].id, TaskId(2));
  EXPECT_TRUE(decision.rejected.empty());
  EXPECT_TRUE(queue.Contains(TaskId(1)));

  // Once the small tenant finishes, a fresh pass admits the big one.
  ASSERT_TRUE(manager.Release(RequestFor(decision.launched[0])).ok());
  const auto second = scheduler.SchedulePassEx(queue, policy);
  ASSERT_EQ(second.launched.size(), 1u);
  EXPECT_EQ(second.launched[0].id, TaskId(1));
}

TEST(SchedulePassExTest, AdmissionControlRejectsImpossibleDemand) {
  ResourceManager manager(100, {10, 10});
  GreedyScheduler scheduler(manager);
  TaskQueue queue;
  auto impossible = MakeTask(1, 9);
  impossible.requirements[0].phones = 20;  // > 10 High phones exist
  ASSERT_TRUE(queue.Submit(impossible).ok());
  ASSERT_TRUE(queue.Submit(MakeTask(2, 1)).ok());

  const auto decision = scheduler.SchedulePassEx(queue, SchedulePolicy{});
  ASSERT_EQ(decision.rejected.size(), 1u);
  EXPECT_EQ(decision.rejected[0].id, TaskId(1));
  ASSERT_EQ(decision.launched.size(), 1u);
  EXPECT_EQ(decision.launched[0].id, TaskId(2));
  EXPECT_FALSE(queue.Contains(TaskId(1)));  // removed, never retried
}

TEST(SchedulePassExTest, FleetShareCapRejectsPermanently) {
  ResourceManager manager(100, {10, 10});  // 20 phones total
  GreedyScheduler scheduler(manager);
  TaskQueue queue;
  // 6 + 6 phones: fits each grade's 10-phone pool, but the TOTAL of 12
  // exceeds the 0.5 × 20 fleet-share cap — the cap alone must reject it.
  auto heavy = MakeTask(1, 9);
  heavy.requirements[0].phones = 6;
  DeviceRequirement low;
  low.grade = DeviceGrade::kLow;
  low.num_devices = 10;
  low.logical_bundles = 16;
  low.phones = 6;
  heavy.requirements.push_back(low);
  auto light = MakeTask(2, 1);
  light.requirements[0].phones = 10;  // exactly at the cap
  ASSERT_TRUE(queue.Submit(heavy).ok());
  ASSERT_TRUE(queue.Submit(light).ok());

  SchedulePolicy policy;
  policy.max_fleet_share = 0.5;
  const auto decision = scheduler.SchedulePassEx(queue, policy);
  ASSERT_EQ(decision.rejected.size(), 1u);
  EXPECT_EQ(decision.rejected[0].id, TaskId(1));
  ASSERT_EQ(decision.launched.size(), 1u);
  EXPECT_EQ(decision.launched[0].id, TaskId(2));
}

// ---------- TaskQueue under concurrent traffic ----------

TEST(TaskQueueTest, ConcurrentSubmitRemoveSnapshotStress) {
  // Writers submit while the main thread snapshots and removes. Every
  // snapshot must be priority-desc with FIFO stability among equals, and
  // every id must end up either removed exactly once or still queued.
  TaskQueue queue;
  constexpr std::uint64_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 200;
  constexpr std::uint64_t kTotal = kWriters * kPerWriter;
  std::atomic<bool> start{false};
  std::atomic<std::size_t> submit_failures{0};
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!start.load()) {
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t id = w * kPerWriter + i + 1;
        if (!queue.Submit(MakeTask(id, static_cast<int>(id % 5))).ok()) {
          ++submit_failures;
        }
      }
    });
  }
  start = true;

  std::set<std::uint64_t> removed;
  bool order_ok = true;
  while (removed.size() < kTotal / 2) {
    const auto snapshot = queue.SnapshotOrdered();
    // Priority order, and FIFO among equals: a writer submits its ids in
    // ascending order, so two same-priority tasks from one writer must
    // appear in ascending-id order in every snapshot.
    for (std::size_t i = 1; i < snapshot.size(); ++i) {
      if (snapshot[i - 1].priority < snapshot[i].priority) order_ok = false;
    }
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      for (std::size_t j = i + 1; j < snapshot.size(); ++j) {
        const std::uint64_t a = snapshot[i].id.value();
        const std::uint64_t b = snapshot[j].id.value();
        if (snapshot[i].priority == snapshot[j].priority &&
            (a - 1) / kPerWriter == (b - 1) / kPerWriter && a > b) {
          order_ok = false;
        }
      }
    }
    // Remove every other snapshotted task; each must come back exactly
    // once with the right id.
    for (std::size_t i = 0; i < snapshot.size(); i += 2) {
      if (removed.size() >= kTotal / 2) break;
      auto task = queue.Remove(snapshot[i].id);
      if (!task.has_value()) continue;  // raced with nothing: ok, skip
      EXPECT_EQ(task->id, snapshot[i].id);
      EXPECT_TRUE(removed.insert(task->id.value()).second)
          << "double-removed " << task->id.ToString();
    }
  }
  for (auto& writer : writers) writer.join();
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(submit_failures.load(), 0u);

  // Partition check: removed ∪ still-queued == all submitted ids.
  const auto rest = queue.SnapshotOrdered();
  EXPECT_EQ(removed.size() + rest.size(), kTotal);
  for (const auto& task : rest) {
    EXPECT_EQ(removed.count(task.id.value()), 0u);
    EXPECT_TRUE(queue.Contains(task.id));
  }
}

// ---------- ResourceManager contention ----------

TEST(ResourceManagerTest, ConcurrentTenantsNeverOversubscribe) {
  // Eight tenants race to freeze {10 bundles, 2+2 phones} against a pool
  // that fits exactly four: all-or-nothing freezing must admit exactly
  // four, never tear a partial grant.
  ResourceManager manager(40, {10, 10});
  ResourceRequest request;
  request.logical_bundles = 10;
  request.phones = {2, 2};
  std::atomic<int> successes{0};
  std::vector<std::thread> tenants;
  for (int i = 0; i < 8; ++i) {
    tenants.emplace_back([&] {
      if (manager.Freeze(request).ok()) ++successes;
    });
  }
  for (auto& tenant : tenants) tenant.join();
  EXPECT_EQ(successes.load(), 4);
  const auto snapshot = manager.Snapshot();
  EXPECT_EQ(snapshot.logical_bundles_free, 0u);
  EXPECT_EQ(snapshot.phones_free[0], 2u);
  EXPECT_EQ(snapshot.phones_free[1], 2u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(manager.Release(request).ok());
  EXPECT_EQ(manager.Snapshot().logical_bundles_free, 40u);
}

// ---------- Phone cluster contention (grade × locality pools) ----------

device::PhoneJob HighGradeJob(std::uint64_t task, std::size_t phones) {
  device::PhoneJob job;
  job.task = TaskId(task);
  job.grade = DeviceGrade::kHigh;
  job.devices_to_simulate = phones;
  job.computing_phones = phones;
  job.rounds = 1;
  job.round_duration_s = 1.0;
  job.startup_s = 1.0;
  job.aggregation_wait_s = 0.0;
  return job;
}

TEST(PhoneContentionTest, OverlappingPoolsNeverDoubleBook) {
  // Paper cluster: 4 local + 13 MSP High phones. Task 1 drains the
  // preferred local pool; task 2's overlapping request must overflow to
  // MSP phones without ever double-booking, and completion must return
  // each phone to its own (grade, locality) free-list.
  sim::EventLoop loop;
  device::PhoneMgr mgr(loop);
  mgr.RegisterFleet(device::MakeLocalFleet(4, 6, 42, 0));
  mgr.RegisterFleet(device::MakeMspFleet(13, 7, 43, 1000));
  ASSERT_EQ(mgr.CountIdle(DeviceGrade::kHigh), 17u);

  const auto first = mgr.SubmitJob(HighGradeJob(1, 4));
  ASSERT_TRUE(first.ok());
  const auto second = mgr.SubmitJob(HighGradeJob(2, 6));
  ASSERT_TRUE(second.ok());
  std::set<std::uint64_t> booked;
  for (PhoneId id : first->computing) {
    EXPECT_LT(id.value(), 1000u);  // local pool preferred
    EXPECT_TRUE(booked.insert(id.value()).second) << "double-booked";
  }
  for (PhoneId id : second->computing) {
    EXPECT_GE(id.value(), 1000u);  // local pool exhausted → MSP
    EXPECT_TRUE(booked.insert(id.value()).second) << "double-booked";
  }
  EXPECT_EQ(mgr.CountIdle(DeviceGrade::kHigh), 7u);

  loop.Run();  // both jobs complete; phones released
  EXPECT_EQ(mgr.CountIdle(DeviceGrade::kHigh), 17u);

  // Released to the CORRECT free-list: a third job prefers local again
  // and gets exactly the four phones task 1 held.
  const auto third = mgr.SubmitJob(HighGradeJob(3, 4));
  ASSERT_TRUE(third.ok());
  std::set<std::uint64_t> first_ids, third_ids;
  for (PhoneId id : first->computing) first_ids.insert(id.value());
  for (PhoneId id : third->computing) third_ids.insert(id.value());
  EXPECT_EQ(first_ids, third_ids);
  loop.Run();

  // CountersFor attributes work to the phones each task owned: the local
  // four ran two jobs (tasks 1 and 3), the MSP six ran one (task 2), and
  // phones no task touched ran none.
  for (PhoneId id : first->computing) {
    const auto counters = mgr.CountersFor(id);
    ASSERT_TRUE(counters.has_value());
    EXPECT_EQ(counters->jobs_assigned, 2u);
    EXPECT_GE(counters->rounds_completed, 2u);
  }
  for (PhoneId id : second->computing) {
    const auto counters = mgr.CountersFor(id);
    ASSERT_TRUE(counters.has_value());
    EXPECT_EQ(counters->jobs_assigned, 1u);
    EXPECT_GE(counters->rounds_completed, 1u);
  }
  std::size_t untouched = 0;
  for (std::uint64_t raw = 0; raw < 2000; ++raw) {
    if (booked.count(raw) != 0) continue;
    const auto counters = mgr.CountersFor(PhoneId(raw));
    if (!counters.has_value()) continue;  // unregistered id
    EXPECT_EQ(counters->jobs_assigned, 0u);
    ++untouched;
  }
  EXPECT_EQ(untouched, 30u - booked.size());
}

}  // namespace
}  // namespace simdc::sched
