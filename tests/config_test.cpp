// Unit tests for the textual task-spec configuration (the headless
// substitute for the paper's GUI front-end).
#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <variant>
#include <vector>

#include "config/task_config.h"
#include "sched/scheduler.h"

namespace simdc::config {
namespace {

constexpr const char* kFullSpec = R"(
# nightly CTR training task
[task]
name = nightly-ctr
priority = 5
rounds = 10

[devices.high]
count = 500
benchmarking = 5
logical_bundles = 100
phones = 12

[devices.low]
count = 500
benchmarking = 5
logical_bundles = 100
phones = 8

[traffic]
strategy = interval
curve = normal
sigma = 1.0
interval_s = 60
failure_probability = 0.05

[aggregation]
trigger = scheduled
period_s = 120
reject_stale = 1
)";

// ---------- INI parsing ----------

TEST(IniTest, ParsesSectionsAndKeys) {
  auto doc = ParseIni("[a]\nx = 1\ny = two words\n[b]\nz=3\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetString(*doc, "a", "x"), "1");
  EXPECT_EQ(*GetString(*doc, "a", "y"), "two words");
  EXPECT_EQ(*GetInt(*doc, "b", "z"), 3);
}

TEST(IniTest, CommentsAndBlankLines) {
  auto doc = ParseIni("# leading comment\n[s]\n; comment\nk = v  # trailing\n\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetString(*doc, "s", "k"), "v");
}

TEST(IniTest, LaterDuplicateWins) {
  auto doc = ParseIni("[s]\nk = 1\nk = 2\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetInt(*doc, "s", "k"), 2);
}

TEST(IniTest, KeysOutsideSectionGoToRoot) {
  auto doc = ParseIni("k = root\n[s]\nk = nested\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*GetString(*doc, "", "k"), "root");
}

TEST(IniTest, MalformedInputsRejectedWithLineNumbers) {
  auto bad_header = ParseIni("[unclosed\nk = v\n");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.error().message().find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseIni("[]\n").ok());
  auto no_equals = ParseIni("[s]\njust words\n");
  ASSERT_FALSE(no_equals.ok());
  EXPECT_NE(no_equals.error().message().find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseIni("[s]\n= value\n").ok());
}

TEST(IniTest, TypedAccessorErrors) {
  auto doc = ParseIni("[s]\nnum = abc\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(GetString(*doc, "missing", "k").error().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(GetString(*doc, "s", "missing").error().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(GetInt(*doc, "s", "num").error().code(), ErrorCode::kParseError);
  EXPECT_EQ(GetDouble(*doc, "s", "num").error().code(),
            ErrorCode::kParseError);
}

TEST(IniTest, SizeLists) {
  auto doc = ParseIni("[s]\nlist = 20, 100, 50\nbad = 1,x\nneg = -2\n");
  ASSERT_TRUE(doc.ok());
  auto list = GetSizeList(*doc, "s", "list");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, (std::vector<std::size_t>{20, 100, 50}));
  EXPECT_FALSE(GetSizeList(*doc, "s", "bad").ok());
  EXPECT_FALSE(GetSizeList(*doc, "s", "neg").ok());
}

// ---------- TaskSpec loading ----------

TEST(TaskSpecTest, LoadsFullSpec) {
  auto task = ParseTaskSpec(kFullSpec);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->name, "nightly-ctr");
  EXPECT_EQ(task->priority, 5);
  EXPECT_EQ(task->rounds, 10u);
  ASSERT_EQ(task->requirements.size(), 2u);
  const auto& high =
      task->requirements[0].grade == device::DeviceGrade::kHigh
          ? task->requirements[0]
          : task->requirements[1];
  EXPECT_EQ(high.num_devices, 500u);
  EXPECT_EQ(high.benchmarking_phones, 5u);
  EXPECT_EQ(high.logical_bundles, 100u);
  EXPECT_EQ(high.phones, 12u);
}

TEST(TaskSpecTest, DefaultsApplyWhenOmitted) {
  auto task = ParseTaskSpec("[devices.high]\ncount = 10\n");
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->rounds, 1u);
  EXPECT_EQ(task->priority, 0);
  EXPECT_EQ(task->requirements[0].benchmarking_phones, 0u);
}

TEST(TaskSpecTest, RejectsInvalidSpecs) {
  EXPECT_FALSE(ParseTaskSpec("[task]\nname = empty\n").ok());  // no devices
  EXPECT_FALSE(ParseTaskSpec("[devices.medium]\ncount = 5\n").ok());
  EXPECT_FALSE(ParseTaskSpec("[devices.high]\ncount = 5\nbenchmarking = 9\n").ok());
  EXPECT_FALSE(
      ParseTaskSpec("[task]\nrounds = 0\n[devices.high]\ncount = 5\n").ok());
  EXPECT_FALSE(ParseTaskSpec("[devices.high]\nphones = 3\n").ok());  // no count
}

TEST(TaskSpecTest, NegativeCountsAreRejectedNotWrapped) {
  // A negative count is rejected, never cast: as a size_t, -1 is 2^64-1,
  // and a freeze of that request would raise the free capacity.
  for (const std::string key : {"benchmarking", "logical_bundles", "phones"}) {
    auto task = ParseTaskSpec("[devices.high]\ncount = 5\n" + key + " = -1\n");
    ASSERT_FALSE(task.ok()) << key;
    EXPECT_EQ(task.error().code(), ErrorCode::kInvalidArgument) << key;
  }
  auto doc = ParseIni(
      "[traffic]\nstrategy = points\nat_s = 1\ncounts = 5\n"
      "random_discard = -3\n");
  ASSERT_TRUE(doc.ok());
  auto strategy = LoadStrategy(*doc);
  ASSERT_FALSE(strategy.ok());
  EXPECT_EQ(strategy.error().code(), ErrorCode::kInvalidArgument);
}

TEST(TaskSpecTest, PriorityOutsideIntIsRejected) {
  for (const std::string priority : {"2147483648", "-2147483649"}) {
    auto task = ParseTaskSpec("[task]\npriority = " + priority +
                              "\n[devices.high]\ncount = 5\n");
    ASSERT_FALSE(task.ok()) << priority;
    EXPECT_EQ(task.error().code(), ErrorCode::kInvalidArgument) << priority;
  }
  auto edge = ParseTaskSpec(
      "[task]\npriority = -2147483648\n[devices.high]\ncount = 5\n");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->priority, std::numeric_limits<int>::min());
}

// ---------- Strategy loading ----------

TEST(StrategyTest, Realtime) {
  auto doc = ParseIni(
      "[traffic]\nstrategy = realtime\nthresholds = 20,100,50\n"
      "failure_probability = 0.1\n");
  ASSERT_TRUE(doc.ok());
  auto strategy = LoadStrategy(*doc);
  ASSERT_TRUE(strategy.ok());
  const auto* realtime = std::get_if<flow::RealtimeAccumulated>(&*strategy);
  ASSERT_NE(realtime, nullptr);
  EXPECT_EQ(realtime->thresholds, (std::vector<std::size_t>{20, 100, 50}));
  EXPECT_DOUBLE_EQ(realtime->failure_probability, 0.1);
}

TEST(StrategyTest, Points) {
  auto doc = ParseIni(
      "[traffic]\nstrategy = points\nat_s = 10,25,40\ncounts = 200,600,400\n"
      "random_discard = 3\n");
  ASSERT_TRUE(doc.ok());
  auto strategy = LoadStrategy(*doc);
  ASSERT_TRUE(strategy.ok());
  const auto* points = std::get_if<flow::TimePointDispatch>(&*strategy);
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->points.size(), 3u);
  EXPECT_EQ(points->points[1].when, Seconds(25.0));
  EXPECT_EQ(points->points[1].count, 600u);
  EXPECT_EQ(points->points[2].random_discard, 3u);
}

TEST(StrategyTest, IntervalCurves) {
  for (const char* curve :
       {"normal", "right_tail", "sin", "cos", "pow2", "pow10", "diurnal"}) {
    auto doc = ParseIni("[traffic]\nstrategy = interval\ncurve = " +
                        std::string(curve) + "\ninterval_s = 30\n");
    ASSERT_TRUE(doc.ok());
    auto strategy = LoadStrategy(*doc);
    ASSERT_TRUE(strategy.ok()) << curve;
    const auto* interval = std::get_if<flow::TimeIntervalDispatch>(&*strategy);
    ASSERT_NE(interval, nullptr) << curve;
    EXPECT_EQ(interval->interval, Seconds(30.0)) << curve;
    EXPECT_GE(interval->rate(interval->rate.domain_lo), 0.0);
  }
}

TEST(StrategyTest, RejectsInvalid) {
  auto bad = [](const std::string& body) {
    auto doc = ParseIni(body);
    EXPECT_TRUE(doc.ok());
    return !LoadStrategy(*doc).ok();
  };
  EXPECT_TRUE(bad("[traffic]\nstrategy = teleport\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = realtime\nthresholds = 0\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = realtime\nfailure_probability = 1.5\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = points\nat_s = 1,2\ncounts = 5\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = interval\ncurve = wiggle\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = interval\ncurve = normal\nsigma = -1\n"));
  EXPECT_TRUE(bad("[traffic]\nstrategy = interval\ncurve = normal\ninterval_s = 0\n"));
  EXPECT_TRUE(bad("[missing]\nx = 1\n"));
}

TEST(StrategyTest, FailureProbabilityMustLieInUnitIntervalForEveryStrategy) {
  // Every strategy holds failure_probability to [0, 1], and NaN fails it.
  for (const std::string strategy :
       {"strategy = points\nat_s = 1\ncounts = 5\n",
        "strategy = realtime\n",
        "strategy = interval\ncurve = normal\n"}) {
    for (const std::string p : {"7.5", "-0.1", "nan"}) {
      auto doc = ParseIni("[traffic]\n" + strategy +
                          "failure_probability = " + p + "\n");
      ASSERT_TRUE(doc.ok());
      auto loaded = LoadStrategy(*doc);
      ASSERT_FALSE(loaded.ok()) << strategy << p;
      EXPECT_EQ(loaded.error().code(), ErrorCode::kInvalidArgument)
          << strategy << p;
    }
  }
}

// ---------- Aggregation loading ----------

TEST(AggregationConfigTest, Scheduled) {
  auto doc = ParseIni(
      "[aggregation]\ntrigger = scheduled\nperiod_s = 120\nreject_stale = 1\n");
  ASSERT_TRUE(doc.ok());
  core::FlExperimentConfig config;
  ASSERT_TRUE(LoadAggregation(*doc, &config).ok());
  EXPECT_EQ(config.trigger, cloud::AggregationTrigger::kScheduled);
  EXPECT_EQ(config.schedule_period, Seconds(120.0));
  EXPECT_TRUE(config.reject_stale);
}

TEST(AggregationConfigTest, SampleThreshold) {
  auto doc = ParseIni(
      "[aggregation]\ntrigger = sample_threshold\nthreshold = 5000\n");
  ASSERT_TRUE(doc.ok());
  core::FlExperimentConfig config;
  ASSERT_TRUE(LoadAggregation(*doc, &config).ok());
  EXPECT_EQ(config.trigger, cloud::AggregationTrigger::kSampleThreshold);
  EXPECT_EQ(config.sample_threshold, 5000u);
  EXPECT_FALSE(config.reject_stale);
}

TEST(AggregationConfigTest, RejectsInvalid) {
  auto check = [](const std::string& body) {
    auto doc = ParseIni(body);
    EXPECT_TRUE(doc.ok());
    core::FlExperimentConfig config;
    return !LoadAggregation(*doc, &config).ok();
  };
  EXPECT_TRUE(check("[aggregation]\ntrigger = magic\n"));
  EXPECT_TRUE(check("[aggregation]\ntrigger = scheduled\nperiod_s = 0\n"));
  EXPECT_TRUE(check("[aggregation]\ntrigger = scheduled\n"));  // no period
  EXPECT_TRUE(check("[aggregation]\ntrigger = sample_threshold\nthreshold = 0\n"));
}

// ---------- Execution loading ----------

// parallelism, decode_plane and aggregate_plane were knobs once; a spec
// that still pins one (any value, even the old default) gets an error
// naming the key instead of the silent ignore other unknown keys get. The
// key is only a [execution] knob; elsewhere it stays an ignored unknown
// key.
void ExpectRemovedKeyRejected(const std::string& key,
                              std::initializer_list<std::string> values) {
  for (const std::string& value : values) {
    auto doc =
        ParseIni("[execution]\nshards = 2\n" + key + " = " + value + "\n");
    ASSERT_TRUE(doc.ok());
    auto config = LoadExecution(*doc);
    ASSERT_FALSE(config.ok()) << key << " = " << value;
    EXPECT_EQ(config.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(config.error().message().find(key), std::string::npos)
        << config.error().ToString();
  }
  auto elsewhere = ParseIni("[traffic]\n" + key + " = legacy\n");
  ASSERT_TRUE(elsewhere.ok());
  EXPECT_TRUE(LoadExecution(*elsewhere).ok());
}

TEST(ExecutionConfigTest, ParsesParallelism) {
  // A spec runs as a tenant of a multi-tenant engine, which trains every
  // tenant on its one pool, so no spec value sizes a pool.
  ExpectRemovedKeyRejected("parallelism", {"0", "1", "4"});
}

TEST(ExecutionConfigTest, ParsesShards) {
  auto doc = ParseIni("[execution]\nshards = 8\n");
  ASSERT_TRUE(doc.ok());
  auto config = LoadExecution(*doc);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->shards, 8u);

  auto alone = ParseIni("[execution]\nshards = 4\n");
  ASSERT_TRUE(alone.ok());
  auto alone_config = LoadExecution(*alone);
  ASSERT_TRUE(alone_config.ok());
  EXPECT_EQ(alone_config->parallelism, 0u);
  EXPECT_EQ(alone_config->shards, 4u);
}

TEST(ExecutionConfigTest, RejectsInvalidShards) {
  auto check = [](const std::string& body) {
    auto doc = ParseIni(body);
    EXPECT_TRUE(doc.ok());
    return !LoadExecution(*doc).ok();
  };
  EXPECT_TRUE(check("[execution]\nshards = -1\n"));
  EXPECT_TRUE(check("[execution]\nshards = many\n"));
}

TEST(ExecutionConfigTest, MissingSectionOrKeyYieldsDefaults) {
  auto empty = ParseIni("[task]\nname = x\n");
  ASSERT_TRUE(empty.ok());
  auto config = LoadExecution(*empty);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->parallelism, 0u);  // inherit the platform pool

  auto bare = ParseIni("[execution]\n");
  ASSERT_TRUE(bare.ok());
  auto bare_config = LoadExecution(*bare);
  ASSERT_TRUE(bare_config.ok());
  EXPECT_EQ(bare_config->parallelism, 0u);
  EXPECT_EQ(bare_config->shards, 1u);
}

TEST(ExecutionConfigTest, RejectsInvalidParallelism) {
  ExpectRemovedKeyRejected("parallelism", {"-2", "lots"});
}

TEST(ExecutionConfigTest, ParallelismAboveTheBoundIsRejected) {
  // The removed key took no more than 1024 once; every value, at that
  // bound or above it, is now refused by name.
  ExpectRemovedKeyRejected("parallelism", {"1024", "1025", "1000000"});
}

TEST(ExecutionConfigTest, ParsesDecodePlane) {
  ExpectRemovedKeyRejected("decode_plane",
                           {"legacy", "decoded", "partial_sum"});
}

TEST(ExecutionConfigTest, ParsesAggregatePlane) {
  ExpectRemovedKeyRejected("aggregate_plane",
                           {"legacy", "decoded", "partial_sum"});
}

TEST(ExecutionConfigTest, ParsesPayloadCodec) {
  auto fp16 = ParseIni("[execution]\npayload_codec = fp16\n");
  ASSERT_TRUE(fp16.ok());
  auto fp16_config = LoadExecution(*fp16);
  ASSERT_TRUE(fp16_config.ok());
  EXPECT_EQ(fp16_config->payload_codec, ml::PayloadCodec::kFp16);

  auto int8 = ParseIni("[execution]\npayload_codec = INT8\n");  // case-folded
  ASSERT_TRUE(int8.ok());
  auto int8_config = LoadExecution(*int8);
  ASSERT_TRUE(int8_config.ok());
  EXPECT_EQ(int8_config->payload_codec, ml::PayloadCodec::kInt8);

  // Missing key keeps the bit-compatible fp32 default; junk is rejected.
  auto missing = ParseIni("[execution]\nshards = 2\n");
  ASSERT_TRUE(missing.ok());
  auto missing_config = LoadExecution(*missing);
  ASSERT_TRUE(missing_config.ok());
  EXPECT_EQ(missing_config->payload_codec, ml::PayloadCodec::kFp32);

  auto junk = ParseIni("[execution]\npayload_codec = fp8\n");
  ASSERT_TRUE(junk.ok());
  EXPECT_FALSE(LoadExecution(*junk).ok());
}

TEST(ExecutionConfigTest, ParsesReclaimPayloadBlobs) {
  auto on = ParseIni("[execution]\nreclaim_payload_blobs = 1\n");
  ASSERT_TRUE(on.ok());
  auto on_config = LoadExecution(*on);
  ASSERT_TRUE(on_config.ok());
  EXPECT_TRUE(on_config->reclaim_payload_blobs);

  auto off = ParseIni("[execution]\nreclaim_payload_blobs = 0\n");
  ASSERT_TRUE(off.ok());
  auto off_config = LoadExecution(*off);
  ASSERT_TRUE(off_config.ok());
  EXPECT_FALSE(off_config->reclaim_payload_blobs);

  auto missing = ParseIni("[execution]\n");
  ASSERT_TRUE(missing.ok());
  auto missing_config = LoadExecution(*missing);
  ASSERT_TRUE(missing_config.ok());
  EXPECT_FALSE(missing_config->reclaim_payload_blobs);  // off by default
}

TEST(ExecutionConfigTest, ParsesDurability) {
  // durability = log (a log without checkpoints) was a mode once; a spec
  // that still asks for it, in any case, gets an error naming the
  // removal instead of a run in another mode.
  for (const std::string mode : {"log", "LOG"}) {
    auto log = ParseIni("[execution]\ndurability = " + mode +
                        "\ndurability_dir = /tmp/d\n");
    ASSERT_TRUE(log.ok());
    auto log_config = LoadExecution(*log);
    ASSERT_FALSE(log_config.ok()) << mode;
    EXPECT_EQ(log_config.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(log_config.error().message().find("durability = log was removed"),
              std::string::npos)
        << log_config.error().ToString();
  }

  auto ckpt = ParseIni(
      "[execution]\ndurability = LOG+CHECKPOINT\ndurability_dir = state\n");
  ASSERT_TRUE(ckpt.ok());  // case-folded like the other enum keys
  auto ckpt_config = LoadExecution(*ckpt);
  ASSERT_TRUE(ckpt_config.ok());
  EXPECT_EQ(ckpt_config->durability.mode,
            persist::DurabilityMode::kLogCheckpoint);
  EXPECT_EQ(ckpt_config->durability.dir, "state");

  auto off = ParseIni("[execution]\ndurability = off\n");
  ASSERT_TRUE(off.ok());
  auto off_config = LoadExecution(*off);
  ASSERT_TRUE(off_config.ok());  // off needs no directory
  EXPECT_EQ(off_config->durability.mode, persist::DurabilityMode::kOff);

  // Missing key keeps the zero-overhead default.
  auto missing = ParseIni("[execution]\nshards = 2\n");
  ASSERT_TRUE(missing.ok());
  auto missing_config = LoadExecution(*missing);
  ASSERT_TRUE(missing_config.ok());
  EXPECT_EQ(missing_config->durability.mode, persist::DurabilityMode::kOff);
  EXPECT_TRUE(missing_config->durability.dir.empty());
}

TEST(ExecutionConfigTest, RejectsBadDurability) {
  // Junk mode names are rejected loudly.
  auto junk = ParseIni("[execution]\ndurability = sometimes\n");
  ASSERT_TRUE(junk.ok());
  EXPECT_FALSE(LoadExecution(*junk).ok());

  // A durable run without a directory has nowhere to write — reject at
  // load time rather than failing mid-run.
  auto no_dir = ParseIni("[execution]\ndurability = log+checkpoint\n");
  ASSERT_TRUE(no_dir.ok());
  auto no_dir_config = LoadExecution(*no_dir);
  ASSERT_FALSE(no_dir_config.ok());
  EXPECT_EQ(no_dir_config.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(no_dir_config.error().message().find("durability_dir"),
            std::string::npos)
      << no_dir_config.error().ToString();
}

// ---------- round trip into the platform types ----------

TEST(RoundTripTest, FullSpecProducesSchedulableTask) {
  auto task = ParseTaskSpec(kFullSpec);
  ASSERT_TRUE(task.ok());
  const auto request = sched::RequestFor(*task);
  EXPECT_EQ(request.logical_bundles, 200u);
  EXPECT_EQ(request.phones[0], 17u);  // 12 + 5 benchmarking
  EXPECT_EQ(request.phones[1], 13u);
}

TEST(RoundTripTest, RequirementsSummingPastSizeMaxNeverFit) {
  // Grade names are case-folded, so these three sections are three High
  // requirements. Their bundles, 2 x (2^63-1) + 10, sum past 2^64: a
  // wrapped request asks for 8 bundles and launches on a 100-bundle pool.
  // The request saturates instead, and the scheduler rejects the task.
  const std::string max =
      std::to_string(std::numeric_limits<std::int64_t>::max());
  auto task = ParseTaskSpec(
      "[devices.high]\ncount = 5\nlogical_bundles = " + max + "\n" +
      "[devices.HIGH]\ncount = 5\nlogical_bundles = " + max + "\n" +
      "[devices.High]\ncount = 5\nlogical_bundles = 10\n");
  ASSERT_TRUE(task.ok()) << task.error().ToString();
  ASSERT_EQ(task->requirements.size(), 3u);
  EXPECT_EQ(sched::RequestFor(*task).logical_bundles,
            std::numeric_limits<std::size_t>::max());

  sched::ResourceManager manager(100, {50, 50});
  sched::GreedyScheduler scheduler(manager);
  sched::TaskQueue queue;
  ASSERT_TRUE(queue.Submit(*task).ok());
  const auto decision = scheduler.SchedulePassEx(queue, {});
  EXPECT_TRUE(decision.launched.empty());
  EXPECT_EQ(decision.rejected.size(), 1u);
  EXPECT_EQ(manager.Snapshot().logical_bundles_free, 100u);
}

// ---------- per-tenant specs (multi-tenant plane) ----------

constexpr const char* kLossyTenantSpec = R"(
[task]
name = lossy-tenant
priority = 7
rounds = 3

[devices.high]
count = 50
logical_bundles = 40
phones = 4

[traffic]
strategy = realtime
thresholds = 5,10
failure_probability = 0.25

[link]
transient_failure_probability = 0.2
max_attempts = 4
backoff_initial_s = 2
upload_deadline_s = 120

[behavior]
enabled = 1
seed = 9
churn_rate = 0.1
link_base_failure = 0.05

[aggregation]
trigger = sample_threshold
threshold = 400
reject_stale = 1

[execution]
shards = 2
payload_codec = int8
reclaim_payload_blobs = 1
durability = log+checkpoint
durability_dir = lossy-state
round_quorum = 25
round_deadline_s = 90
round_extension_s = 30
max_round_extensions = 4
)";

constexpr const char* kCleanTenantSpec = R"(
[task]
name = clean-tenant
priority = 2
rounds = 1

[devices.high]
count = 20
logical_bundles = 16
phones = 2
)";

TEST(TenantSpecTest, TwoSpecsYieldTwoDistinctPolicies) {
  // The historical failure mode: [link] and round_quorum parsed per spec
  // but only one global set was applied. LoadTenantSpec must keep each
  // spec's policies separate — one lossy/quorum'd tenant, one default.
  auto lossy_doc = ParseIni(kLossyTenantSpec);
  auto clean_doc = ParseIni(kCleanTenantSpec);
  ASSERT_TRUE(lossy_doc.ok());
  ASSERT_TRUE(clean_doc.ok());
  auto lossy = LoadTenantSpec(*lossy_doc);
  auto clean = LoadTenantSpec(*clean_doc);
  ASSERT_TRUE(lossy.ok());
  ASSERT_TRUE(clean.ok());

  // Every section of the lossy spec lands in its own experiment.
  EXPECT_EQ(lossy->spec.name, "lossy-tenant");
  const core::FlExperimentConfig& fl = lossy->fl;
  EXPECT_EQ(fl.rounds, 3u);
  const auto* realtime = std::get_if<flow::RealtimeAccumulated>(&fl.strategy);
  ASSERT_NE(realtime, nullptr);
  EXPECT_EQ(realtime->thresholds, (std::vector<std::size_t>{5, 10}));
  EXPECT_DOUBLE_EQ(realtime->failure_probability, 0.25);
  EXPECT_DOUBLE_EQ(fl.link.transient_failure_probability, 0.2);
  EXPECT_EQ(fl.link.max_attempts, 4u);
  EXPECT_EQ(fl.link.backoff_initial, Seconds(2.0));
  EXPECT_EQ(fl.link.upload_deadline, Seconds(120.0));
  EXPECT_TRUE(fl.link.active());
  EXPECT_TRUE(fl.behavior.enabled);
  EXPECT_EQ(fl.behavior.seed, 9u);
  EXPECT_DOUBLE_EQ(fl.behavior.churn_rate, 0.1);
  EXPECT_DOUBLE_EQ(fl.behavior.link_base_failure, 0.05);
  EXPECT_EQ(fl.trigger, cloud::AggregationTrigger::kSampleThreshold);
  EXPECT_EQ(fl.sample_threshold, 400u);
  EXPECT_TRUE(fl.reject_stale);
  EXPECT_EQ(fl.shards, 2u);
  EXPECT_EQ(fl.payload_codec, ml::PayloadCodec::kInt8);
  EXPECT_TRUE(fl.reclaim_payload_blobs);
  EXPECT_EQ(fl.durability.mode, persist::DurabilityMode::kLogCheckpoint);
  EXPECT_EQ(fl.durability.dir, "lossy-state");
  EXPECT_EQ(fl.round_quorum, 25u);
  EXPECT_EQ(fl.round_deadline, Seconds(90.0));
  EXPECT_EQ(fl.round_extension, Seconds(30.0));
  EXPECT_EQ(fl.max_round_extensions, 4u);

  // A scheduled trigger carries its period.
  auto scheduled_doc = ParseIni(std::string(kCleanTenantSpec) +
                                "[aggregation]\ntrigger = scheduled\n"
                                "period_s = 45\n");
  ASSERT_TRUE(scheduled_doc.ok());
  auto scheduled = LoadTenantSpec(*scheduled_doc);
  ASSERT_TRUE(scheduled.ok());
  EXPECT_EQ(scheduled->fl.trigger, cloud::AggregationTrigger::kScheduled);
  EXPECT_EQ(scheduled->fl.schedule_period, Seconds(45.0));

  // The clean spec sets only [task] and [devices.*]: its experiment is the
  // default one, field for field, except the rounds [task] asks for.
  EXPECT_EQ(clean->spec.name, "clean-tenant");
  const core::FlExperimentConfig d;
  const core::FlExperimentConfig& c = clean->fl;
  EXPECT_EQ(c.rounds, 1u);
  EXPECT_EQ(c.train.learning_rate, d.train.learning_rate);
  EXPECT_EQ(c.train.epochs, d.train.epochs);
  EXPECT_EQ(c.train.shuffle_seed, d.train.shuffle_seed);
  EXPECT_EQ(c.time_window, d.time_window);
  EXPECT_EQ(c.logical_fraction, d.logical_fraction);
  const auto* pass = std::get_if<flow::RealtimeAccumulated>(&c.strategy);
  const auto& pass_default = std::get<flow::RealtimeAccumulated>(d.strategy);
  ASSERT_NE(pass, nullptr);
  EXPECT_EQ(pass->thresholds, pass_default.thresholds);
  EXPECT_EQ(pass->failure_probability, pass_default.failure_probability);
  EXPECT_EQ(pass->capacity_per_second, pass_default.capacity_per_second);
  EXPECT_EQ(c.payload_codec, d.payload_codec);
  EXPECT_EQ(c.reclaim_payload_blobs, d.reclaim_payload_blobs);
  EXPECT_EQ(c.trigger, d.trigger);
  EXPECT_EQ(c.sample_threshold, d.sample_threshold);
  EXPECT_EQ(c.schedule_period, d.schedule_period);
  EXPECT_EQ(c.reject_stale, d.reject_stale);
  EXPECT_EQ(c.behavior.enabled, d.behavior.enabled);
  EXPECT_EQ(c.behavior.seed, d.behavior.seed);
  EXPECT_EQ(c.behavior.mean_availability, d.behavior.mean_availability);
  EXPECT_EQ(c.behavior.diurnal_amplitude, d.behavior.diurnal_amplitude);
  EXPECT_EQ(c.behavior.diurnal_period, d.behavior.diurnal_period);
  EXPECT_EQ(c.behavior.diurnal_phase, d.behavior.diurnal_phase);
  EXPECT_EQ(c.behavior.churn_rate, d.behavior.churn_rate);
  EXPECT_EQ(c.behavior.churn_horizon, d.behavior.churn_horizon);
  EXPECT_EQ(c.behavior.rejoin_fraction, d.behavior.rejoin_fraction);
  EXPECT_EQ(c.behavior.churn_downtime, d.behavior.churn_downtime);
  EXPECT_EQ(c.behavior.min_battery, d.behavior.min_battery);
  EXPECT_EQ(c.behavior.battery_period, d.behavior.battery_period);
  EXPECT_EQ(c.behavior.link_base_failure, d.behavior.link_base_failure);
  EXPECT_EQ(c.behavior.link_diurnal_swing, d.behavior.link_diurnal_swing);
  EXPECT_EQ(c.link.transient_failure_probability,
            d.link.transient_failure_probability);
  EXPECT_EQ(c.link.max_attempts, d.link.max_attempts);
  EXPECT_EQ(c.link.backoff_initial, d.link.backoff_initial);
  EXPECT_EQ(c.link.backoff_multiplier, d.link.backoff_multiplier);
  EXPECT_EQ(c.link.backoff_max, d.link.backoff_max);
  EXPECT_EQ(c.link.upload_deadline, d.link.upload_deadline);
  EXPECT_FALSE(c.link.active());
  EXPECT_EQ(c.round_quorum, d.round_quorum);
  EXPECT_EQ(c.round_deadline, d.round_deadline);
  EXPECT_EQ(c.round_extension, d.round_extension);
  EXPECT_EQ(c.max_round_extensions, d.max_round_extensions);
  EXPECT_FALSE(c.delay_fn);
  EXPECT_EQ(c.participants_per_round, d.participants_per_round);
  EXPECT_EQ(c.compute_seconds, d.compute_seconds);
  EXPECT_EQ(c.stall_timeout, d.stall_timeout);
  EXPECT_EQ(c.parallelism, d.parallelism);
  EXPECT_EQ(c.shards, d.shards);
  EXPECT_EQ(c.durability.mode, d.durability.mode);
  EXPECT_EQ(c.durability.dir, d.durability.dir);
  EXPECT_EQ(c.durability.io, d.durability.io);
  EXPECT_EQ(c.seed, d.seed);
  EXPECT_EQ(c.task, d.task);
}

TEST(TenantSpecTest, StrategyPresenceIsTracked) {
  // A [traffic] section lands in fl.strategy; without one the experiment
  // keeps the pass-through RealtimeAccumulated{{1}}.
  auto with_traffic = ParseIni(
      "[task]\nname = t\nrounds = 1\n"
      "[devices.high]\ncount = 10\nlogical_bundles = 8\nphones = 1\n"
      "[traffic]\nstrategy = realtime\nthresholds = 5\n");
  ASSERT_TRUE(with_traffic.ok());
  auto spec = LoadTenantSpec(*with_traffic);
  ASSERT_TRUE(spec.ok());
  const auto* realtime =
      std::get_if<flow::RealtimeAccumulated>(&spec->fl.strategy);
  ASSERT_NE(realtime, nullptr);
  EXPECT_EQ(realtime->thresholds, std::vector<std::size_t>{5});

  auto without_traffic = ParseIni(
      "[task]\nname = t\nrounds = 1\n"
      "[devices.high]\ncount = 10\nlogical_bundles = 8\nphones = 1\n");
  ASSERT_TRUE(without_traffic.ok());
  auto defaulted = LoadTenantSpec(*without_traffic);
  ASSERT_TRUE(defaulted.ok());
  const auto* pass =
      std::get_if<flow::RealtimeAccumulated>(&defaulted->fl.strategy);
  ASSERT_NE(pass, nullptr);
  EXPECT_EQ(pass->thresholds, std::vector<std::size_t>{1});
  EXPECT_EQ(pass->failure_probability, 0.0);
}

TEST(TenantSpecTest, MalformedPresentSectionsAreErrors) {
  // A present-but-broken [link] section must fail loudly, never default.
  auto bad_link = ParseIni(
      "[task]\nname = t\nrounds = 1\n"
      "[devices.high]\ncount = 10\nlogical_bundles = 8\nphones = 1\n"
      "[link]\ntransient_failure_probability = 1.5\n");
  ASSERT_TRUE(bad_link.ok());
  EXPECT_FALSE(LoadTenantSpec(*bad_link).ok());

  // A tenant with no [devices.*] section has nothing to schedule.
  auto no_devices = ParseIni("[task]\nname = t\nrounds = 1\n");
  ASSERT_TRUE(no_devices.ok());
  EXPECT_FALSE(LoadTenantSpec(*no_devices).ok());
}

TEST(TenantSpecTest, MalformedOptionalValuesAreParseErrors) {
  // A present but malformed value is an error in every section, never a
  // silent default: `rounds = ten` must not run one round.
  const std::string base = "[task]\nname = t\n[devices.high]\ncount = 10\n";
  const std::string points = "[traffic]\nstrategy = points\nat_s = 1\n"
                             "counts = 5\n";
  const std::string interval = "[traffic]\nstrategy = interval\n"
                               "curve = normal\n";
  for (const std::string& extra : {
           std::string("[task]\nrounds = ten\n"),
           std::string("[task]\npriority = high\n"),
           std::string("[devices.high]\nbenchmarking = some\n"),
           std::string("[devices.high]\nlogical_bundles = 1.5\n"),
           std::string("[devices.high]\nphones = many\n"),
           std::string("[traffic]\nstrategy = realtime\nthresholds = a,b\n"),
           std::string("[traffic]\nstrategy = realtime\n"
                       "failure_probability = low\n"),
           points + "random_discard = x\n",
           points + "failure_probability = p\n",
           interval + "sigma = wide\n",
           interval + "interval_s = soon\n",
           std::string("[aggregation]\ntrigger = scheduled\nperiod_s = 60\n"
                       "reject_stale = yes\n")}) {
    auto doc = ParseIni(base + extra);
    ASSERT_TRUE(doc.ok()) << extra;
    auto spec = LoadTenantSpec(*doc);
    ASSERT_FALSE(spec.ok()) << extra;
    EXPECT_EQ(spec.error().code(), ErrorCode::kParseError) << extra;
  }
}

TEST(TenantSpecTest, DurationsOutsideTheClockAreRejected) {
  // Seconds become int64 microseconds: a duration must fit that count,
  // and a dispatch interval must not round to 0 us.
  const std::string base = "[task]\nname = t\n[devices.high]\ncount = 10\n";
  for (const std::string& extra : {
           std::string("[execution]\nround_deadline_s = 1e300\n"),
           std::string("[execution]\nround_extension_s = inf\n"),
           std::string("[link]\nbackoff_max_s = 1e13\n"),
           std::string("[behavior]\nchurn_horizon_s = nan\n"),
           std::string("[traffic]\nstrategy = interval\ncurve = normal\n"
                       "interval_s = 1e-7\n"),
           std::string("[traffic]\nstrategy = points\n"
                       "at_s = 10000000000000\ncounts = 5\n"),
           std::string("[aggregation]\ntrigger = scheduled\n"
                       "period_s = nan\n")}) {
    auto doc = ParseIni(base + extra);
    ASSERT_TRUE(doc.ok()) << extra;
    auto spec = LoadTenantSpec(*doc);
    ASSERT_FALSE(spec.ok()) << extra;
    EXPECT_EQ(spec.error().code(), ErrorCode::kInvalidArgument) << extra;
  }
}

}  // namespace
}  // namespace simdc::config
