// Unit tests for the actor substrate: resource pools, placement groups,
// actor ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "actor/cluster.h"
#include "actor/resource.h"

namespace simdc::actor {
namespace {

// ---------- ResourceBundle ----------

TEST(ResourceBundleTest, Arithmetic) {
  ResourceBundle a{4, 12}, b{1, 6};
  const ResourceBundle sum = a + b;
  EXPECT_DOUBLE_EQ(sum.cpu_cores, 5);
  EXPECT_DOUBLE_EQ(sum.memory_gb, 18);
  const ResourceBundle diff = a - b;
  EXPECT_DOUBLE_EQ(diff.cpu_cores, 3);
  const ResourceBundle scaled = b * 3.0;
  EXPECT_DOUBLE_EQ(scaled.memory_gb, 18);
}

TEST(ResourceBundleTest, Contains) {
  ResourceBundle big{8, 16, 1};
  EXPECT_TRUE(big.Contains({4, 12}));
  EXPECT_TRUE(big.Contains(big));
  EXPECT_FALSE(big.Contains({9, 1}));
  EXPECT_FALSE(big.Contains({1, 1, 2}));
}

TEST(ResourceBundleTest, ToStringMentionsFields) {
  const std::string s = ResourceBundle{1, 2, 3}.ToString();
  EXPECT_NE(s.find("cpu"), std::string::npos);
  EXPECT_NE(s.find("gpu"), std::string::npos);
}

// ---------- ResourcePool ----------

TEST(ResourcePoolTest, FreezeAndRelease) {
  ResourcePool pool({10, 100});
  EXPECT_TRUE(pool.Freeze({4, 40}).ok());
  EXPECT_EQ(pool.available().cpu_cores, 6);
  EXPECT_TRUE(pool.Freeze({6, 60}).ok());
  EXPECT_FALSE(pool.Freeze({1, 1}).ok());  // exhausted
  EXPECT_TRUE(pool.Release({4, 40}).ok());
  EXPECT_TRUE(pool.Freeze({4, 40}).ok());
}

TEST(ResourcePoolTest, FreezeFailureLeavesStateUntouched) {
  ResourcePool pool({2, 2});
  EXPECT_FALSE(pool.Freeze({3, 1}).ok());
  EXPECT_EQ(pool.in_use().cpu_cores, 0);
}

TEST(ResourcePoolTest, OverReleaseClampsAndErrors) {
  ResourcePool pool({4, 4});
  ASSERT_TRUE(pool.Freeze({1, 1}).ok());
  EXPECT_FALSE(pool.Release({2, 2}).ok());
  EXPECT_EQ(pool.in_use().cpu_cores, 0);  // clamped, not negative
}

TEST(ResourcePoolTest, ScaleUpAndDown) {
  ResourcePool pool({4, 8});
  pool.ScaleUp({4, 8});
  EXPECT_EQ(pool.capacity().cpu_cores, 8);
  ASSERT_TRUE(pool.Freeze({6, 10}).ok());
  EXPECT_FALSE(pool.ScaleDown({4, 8}).ok());  // would dip below in-use
  ASSERT_TRUE(pool.Release({6, 10}).ok());
  EXPECT_TRUE(pool.ScaleDown({4, 8}).ok());
  EXPECT_EQ(pool.capacity().cpu_cores, 4);
  EXPECT_FALSE(pool.ScaleDown({100, 0}).ok());  // below zero
}

TEST(ResourcePoolTest, MaxUnitsAvailable) {
  ResourcePool pool({8, 12});
  EXPECT_EQ(pool.MaxUnitsAvailable({1, 1}), 8u);   // limited by cpu
  EXPECT_EQ(pool.MaxUnitsAvailable({1, 3}), 4u);   // limited by memory
  ASSERT_TRUE(pool.Freeze({6, 0}).ok());
  EXPECT_EQ(pool.MaxUnitsAvailable({1, 1}), 2u);
  EXPECT_EQ(pool.MaxUnitsAvailable({0, 0}), 0u);   // degenerate unit
}

// ---------- Cluster / placement groups ----------

TEST(ClusterTest, PlacementPackFillsFirstNode) {
  Cluster cluster(3, {8, 16}, 2);
  auto group = cluster.CreatePlacementGroup({{4, 8}, {4, 8}},
                                            PlacementStrategy::kPack);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->allocations[0].node, NodeId(0));
  EXPECT_EQ(group->allocations[1].node, NodeId(0));
  EXPECT_EQ(cluster.node_pool(0).available().cpu_cores, 0);
}

TEST(ClusterTest, PlacementSpreadRoundRobins) {
  Cluster cluster(3, {8, 16}, 2);
  auto group = cluster.CreatePlacementGroup({{4, 8}, {4, 8}, {4, 8}},
                                            PlacementStrategy::kSpread);
  ASSERT_TRUE(group.ok());
  std::set<std::uint64_t> nodes;
  for (const auto& alloc : group->allocations) nodes.insert(alloc.node.value());
  EXPECT_EQ(nodes.size(), 3u);
}

TEST(ClusterTest, PlacementIsAllOrNothing) {
  Cluster cluster(2, {4, 8}, 2);
  // Second bundle cannot fit anywhere: whole group must fail and release.
  auto group = cluster.CreatePlacementGroup({{4, 8}, {5, 1}});
  EXPECT_FALSE(group.ok());
  EXPECT_EQ(group.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(cluster.TotalAvailable().cpu_cores, 8.0);
}

TEST(ClusterTest, RemovePlacementGroupIsIdempotent) {
  Cluster cluster(1, {8, 16}, 2);
  auto group = cluster.CreatePlacementGroup({{8, 16}});
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE(cluster.RemovePlacementGroup(*group).ok());
  EXPECT_TRUE(cluster.RemovePlacementGroup(*group).ok());  // second: no-op
  EXPECT_DOUBLE_EQ(cluster.TotalAvailable().cpu_cores, 8.0);
}

TEST(ClusterTest, EmptyGroupRejected) {
  Cluster cluster(1, {8, 16}, 2);
  EXPECT_FALSE(cluster.CreatePlacementGroup({}).ok());
}

TEST(ClusterTest, CapacityAccounting) {
  Cluster cluster(4, {10, 20}, 2);
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().cpu_cores, 40.0);
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().memory_gb, 80.0);
}

// ---------- Actor ----------

TEST(ActorTest, ExecutesTasksInSubmissionOrder) {
  Cluster cluster(1, {8, 16}, 4);
  auto group = cluster.CreatePlacementGroup({{4, 8}});
  ASSERT_TRUE(group.ok());
  auto actor = cluster.CreateActor(group->allocations[0]);

  std::vector<int> order;
  std::mutex mutex;
  for (int i = 0; i < 50; ++i) {
    actor->Submit([&, i] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    });
  }
  actor->Drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(actor->tasks_executed(), 50u);
}

TEST(ActorTest, DistinctActorsRunConcurrently) {
  Cluster cluster(1, {8, 16}, 4);
  auto group = cluster.CreatePlacementGroup({{2, 4}, {2, 4}});
  ASSERT_TRUE(group.ok());
  auto a = cluster.CreateActor(group->allocations[0]);
  auto b = cluster.CreateActor(group->allocations[1]);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    a->Submit([&] { done++; });
    b->Submit([&] { done++; });
  }
  a->Drain();
  b->Drain();
  EXPECT_EQ(done.load(), 40);
}

TEST(ActorTest, FutureResolvesAfterExecution) {
  Cluster cluster(1, {8, 16}, 2);
  auto group = cluster.CreatePlacementGroup({{1, 1}});
  ASSERT_TRUE(group.ok());
  auto actor = cluster.CreateActor(group->allocations[0]);
  int value = 0;
  auto f = actor->Submit([&] { value = 99; });
  f.get();
  EXPECT_EQ(value, 99);
}

}  // namespace
}  // namespace simdc::actor
