// Unit tests for src/common: errors, ids, RNG, statistics, strings,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/arena.h"
#include "common/det_hash.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace simdc {
namespace {

// ---------- Result / Status ----------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("missing thing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(ResultTest, ErrorOnOkThrows) {
  Result<int> r = 1;
  EXPECT_THROW((void)r.error(), std::logic_error);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesError) {
  Status s = ResourceExhausted("pool dry");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("pool dry"), std::string::npos);
}

TEST(ErrorTest, ToStringIncludesCodeName) {
  EXPECT_NE(ParseError("bad").ToString().find("ParseError"),
            std::string::npos);
}

TEST(CheckTest, ThrowsWithMessage) {
  EXPECT_THROW(SIMDC_CHECK(false, "reason " << 42), std::invalid_argument);
  EXPECT_NO_THROW(SIMDC_CHECK(true, "fine"));
}

// ---------- Strong ids ----------

TEST(IdsTest, DistinctTypesAndEquality) {
  TaskId a(1), b(1), c(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(TaskId().valid());
}

TEST(IdsTest, ToStringUsesPrefix) {
  EXPECT_EQ(TaskId(7).ToString(), "task-7");
  EXPECT_EQ(PhoneId(3).ToString(), "phone-3");
  EXPECT_EQ(DeviceId(9).ToString(), "dev-9");
}

TEST(IdsTest, Hashable) {
  std::set<TaskId> ids = {TaskId(1), TaskId(2), TaskId(1)};
  EXPECT_EQ(ids.size(), 2u);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(RngTest, SplitIsStableAndIndependent) {
  const Rng root(99);
  Rng c1 = root.Split(5);
  Rng c2 = root.Split(5);
  Rng c3 = root.Split(6);
  EXPECT_EQ(c1(), c2());
  EXPECT_NE(c1(), c3());
}

TEST(RngTest, SplitByLabel) {
  const Rng root(7);
  EXPECT_EQ(root.Split("alpha")(), root.Split("alpha")());
  EXPECT_NE(root.Split("alpha")(), root.Split("beta")());
}

TEST(RngTest, UniformInRange) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(5);
  EXPECT_THROW(rng.UniformInt(3, 2), std::invalid_argument);
}

TEST(RngTest, NormalMoments) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 30000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_THROW(rng.Exponential(0.0), std::invalid_argument);
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(10);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 20000; ++i) ones += rng.Categorical(weights) == 1;
  EXPECT_NEAR(ones / 20000.0, 0.75, 0.02);
}

TEST(RngTest, CategoricalRejectsBadWeights) {
  Rng rng(10);
  EXPECT_THROW(rng.Categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(12);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t s : unique) EXPECT_LT(s, 100u);
  EXPECT_THROW(rng.SampleWithoutReplacement(5, 6), std::invalid_argument);
}

TEST(RngTest, SampleWithoutReplacementIsUniform) {
  // Each index should appear with probability k/n.
  Rng rng(13);
  std::vector<int> counts(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t idx : rng.SampleWithoutReplacement(20, 5)) {
      ++counts[idx];
    }
  }
  for (int c : counts) EXPECT_NEAR(c / static_cast<double>(trials), 0.25, 0.03);
}

TEST(HashStringTest, StableAndDistinct) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
}

// ---------- Deterministic hashing ----------

TEST(DeterministicHashTest, MatchesHistoricalDropFormula) {
  // HashCombine must reproduce the transmission-drop draw bit-for-bit:
  // SplitMix64(seed ^ SplitMix64(value)). Seeded fault patterns from runs
  // before the helper existed depend on it.
  const std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t id = 1; id <= 64; ++id) {
    EXPECT_EQ(HashCombine(seed, id), SplitMix64(seed ^ SplitMix64(id)));
  }
}

TEST(DeterministicHashTest, VariadicChainsPairwise) {
  // DeterministicHash(k, a, b) folds left: each extra field re-keys the
  // chain, so it must equal HashCombine applied pairwise.
  const std::uint64_t k = 7, a = 11, b = 13, c = 17;
  EXPECT_EQ(DeterministicHash(k, a), HashCombine(k, a));
  EXPECT_EQ(DeterministicHash(k, a, b), HashCombine(HashCombine(k, a), b));
  EXPECT_EQ(DeterministicHash(k, a, b, c),
            HashCombine(HashCombine(HashCombine(k, a), b), c));
}

TEST(DeterministicHashTest, ArgumentOrderMatters) {
  EXPECT_NE(DeterministicHash(1, 2, 3), DeterministicHash(1, 3, 2));
  EXPECT_NE(DeterministicHash(2, 1, 3), DeterministicHash(1, 2, 3));
}

TEST(DeterministicHashTest, HashUnitInHalfOpenUnitInterval) {
  // Same 53-bit mapping Rng::Uniform uses; the all-ones hash must stay
  // strictly below 1.
  EXPECT_EQ(HashUnit(0), 0.0);
  EXPECT_LT(HashUnit(~0ULL), 1.0);
  std::uint64_t h = 42;
  for (int i = 0; i < 1000; ++i) {
    h = SplitMix64(h);
    const double u = HashUnit(h);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(DeterministicHashTest, IsConstexpr) {
  // Usable for compile-time salts (behavior-model streams rely on it).
  static_assert(DeterministicHash(1, 2, 3) == DeterministicHash(1, 2, 3));
  static_assert(HashUnit(DeterministicHash(5, 6)) >= 0.0);
  SUCCEED();
}

// ---------- Statistics ----------

TEST(RunningStatsTest, Basics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SumIsExactAcrossChainedMerges) {
  // Regression: sum() used to be reconstructed as mean * count, whose
  // rounding error compounds over chained Merge() calls — exactly the
  // per-shard stats merge pattern the sharded engine performs every round.
  // A tracked compensated sum stays within one rounding of the truth.
  Rng rng(11);
  RunningStats merged;
  long double reference = 0.0L;
  for (int round = 0; round < 200; ++round) {
    RunningStats shard;
    for (int i = 0; i < 50; ++i) {
      // Mixed magnitudes make naive accumulation visibly lossy.
      const double x = rng.Uniform() * (i % 7 == 0 ? 1e12 : 1e-3);
      shard.Add(x);
      reference += static_cast<long double>(x);
    }
    merged.Merge(shard);
  }
  EXPECT_EQ(merged.count(), 200u * 50u);
  const double expected = static_cast<double>(reference);
  EXPECT_NEAR(merged.sum(), expected, std::abs(expected) * 1e-15);
}

TEST(RunningStatsTest, MergeIsAssociativeForSum) {
  // Integer-valued samples are exactly representable, so both merge
  // groupings must produce the same bits.
  Rng rng(29);
  std::vector<double> xs(300);
  for (double& x : xs) x = static_cast<double>(rng.UniformInt(-1000, 1000));

  auto fill = [&](std::size_t lo, std::size_t hi) {
    RunningStats s;
    for (std::size_t i = lo; i < hi; ++i) s.Add(xs[i]);
    return s;
  };
  RunningStats a = fill(0, 100), b = fill(100, 200), c = fill(200, 300);

  RunningStats left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  RunningStats bc = b;     // a + (b + c)
  bc.Merge(c);
  RunningStats right = a;
  right.Merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum(), right.sum());
  double direct = 0.0;
  for (double x : xs) direct += x;
  EXPECT_EQ(left.sum(), direct);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(5.0, 2.0);
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(PearsonTest, PerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> yneg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, yneg), -1.0, 1e-12);
}

TEST(PearsonTest, ZeroVarianceReturnsZero) {
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {2, 4, 6};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(PearsonTest, MismatchThrows) {
  std::vector<double> x = {1, 2};
  std::vector<double> y = {1};
  EXPECT_THROW(PearsonCorrelation(x, y), std::invalid_argument);
}

TEST(PercentileTest, InterpolatesLinearly) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25);
  EXPECT_THROW(Percentile(std::vector<double>{}, 50), std::invalid_argument);
  EXPECT_THROW(Percentile(v, 101), std::invalid_argument);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);    // bin 0
  h.Add(9.9);    // bin 4
  h.Add(-3.0);   // clamps to bin 0
  h.Add(100.0);  // clamps to bin 4
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.ToAscii().empty());
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(5.0, 5.0, 3), std::invalid_argument);
  // Infinite bounds would make every sample's bin position NaN.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Histogram(-inf, 0.0, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, inf, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, std::numeric_limits<double>::quiet_NaN(), 3),
               std::invalid_argument);
}

TEST(HistogramTest, NonFiniteSamplesAreRoutedExplicitly) {
  // Regression: Add() used to cast (x - lo) / width straight to
  // ptrdiff_t, which is UB for NaN/±inf (and for finite values outside
  // ptrdiff_t's range) — flagged by UBSan. NaN is dropped and tallied;
  // infinities and huge finite values clamp to the edge bins.
  Histogram h(0.0, 10.0, 5);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  h.Add(-std::numeric_limits<double>::infinity());
  h.Add(1e300);
  h.Add(-1e300);
  h.Add(std::numeric_limits<double>::max());
  EXPECT_EQ(h.nan_dropped(), 1u);
  EXPECT_EQ(h.total(), 5u);  // NaN excluded, everything else binned
  EXPECT_EQ(h.bin_count(0), 2u);  // -inf, -1e300
  EXPECT_EQ(h.bin_count(4), 3u);  // +inf, 1e300, DBL_MAX
}

TEST(HistogramTest, ToAsciiHandlesWideLabelsAndLargeCounts) {
  // Regression: the fixed char[64] line buffer silently truncated wide
  // bin edges, and counts * width overflowed std::size_t.
  Histogram h(-1.0e9, 1.0e9, 2);
  for (int i = 0; i < 3; ++i) h.Add(-5.0e8);
  h.Add(5.0e8);
  const std::string art = h.ToAscii(40);
  // Both full edge values survive un-truncated.
  EXPECT_NE(art.find("-1000000000.000"), std::string::npos);
  EXPECT_NE(art.find("1000000000.000"), std::string::npos);
  // Peak bin renders the full bar; the 1/3-height bin renders 13 marks.
  const auto first_line_end = art.find('\n');
  ASSERT_NE(first_line_end, std::string::npos);
  EXPECT_EQ(std::count(art.begin(),
                       art.begin() + static_cast<std::ptrdiff_t>(first_line_end),
                       '#'),
            40);
  EXPECT_EQ(std::count(art.begin() + static_cast<std::ptrdiff_t>(first_line_end),
                       art.end(), '#'),
            13);
}

TEST(HistogramTest, ApproxPercentileInterpolatesWithinBins) {
  EXPECT_DOUBLE_EQ(Histogram(0.0, 1.0, 4).ApproxPercentile(0.5), 0.0);

  // A lone sample must be estimated near its own bin, not smeared to an
  // edge: the within-bin midpoint convention bounds the error by half a
  // bin width.
  Histogram lone(0.0, 60.0, 256);
  lone.Add(60.0);
  for (double p : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_NEAR(lone.ApproxPercentile(p), 60.0, 60.0 / 256.0) << "p=" << p;
  }

  // Uniform spread: percentiles should track the sample values closely.
  Histogram uniform(0.0, 100.0, 256);
  for (int i = 0; i < 100; ++i) uniform.Add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(uniform.ApproxPercentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(uniform.ApproxPercentile(0.95), 95.0, 1.0);
  EXPECT_NEAR(uniform.ApproxPercentile(0.99), 99.0, 1.0);

  // Quantile ordering is monotone and p is clamped to [0, 1].
  const double p50 = uniform.ApproxPercentile(0.5);
  const double p95 = uniform.ApproxPercentile(0.95);
  const double p99 = uniform.ApproxPercentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_DOUBLE_EQ(uniform.ApproxPercentile(-0.5),
                   uniform.ApproxPercentile(0.0));
  EXPECT_DOUBLE_EQ(uniform.ApproxPercentile(2.0),
                   uniform.ApproxPercentile(1.0));
}

// ---------- Strings ----------

TEST(StringUtilTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, SplitWhitespace) {
  const auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, SplitLines) {
  const auto lines = SplitLines("one\ntwo\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "two");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x y  "), "x y");
  EXPECT_EQ(TrimWhitespace("\t\n"), "");
}

TEST(StringUtilTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt(" -7 "), -7);
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("3.5%").has_value());
}

TEST(StringUtilTest, FirstIntIn) {
  EXPECT_EQ(FirstIntIn("TOTAL PSS: 46180 kB"), 46180);
  EXPECT_EQ(FirstIntIn("temp -12 deg"), -12);
  EXPECT_FALSE(FirstIntIn("no numbers").has_value());
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ExecutesSubmittedJobs) {
  ThreadPool pool(4);
  auto f = pool.Submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  // The member and, for n > 1, the simdc::ParallelFor helper run every
  // index once on the pool's workers, none on the caller.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const bool helper : {false, true}) {
    std::vector<std::atomic<int>> hits(1000);
    std::atomic<int> on_caller{0};
    const auto fn = [&](std::size_t i) {
      hits[i]++;
      if (std::this_thread::get_id() == caller) on_caller++;
    };
    if (helper) {
      ParallelFor(&pool, hits.size(), fn);
    } else {
      pool.ParallelFor(hits.size(), fn);
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "helper=" << helper;
    EXPECT_EQ(on_caller.load(), 0) << "helper=" << helper;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ManyConcurrentSubmissions) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, ParallelForThrowsOnlyAfterEveryChunkFinished) {
  // A throwing chunk must not let ParallelFor return while other chunks
  // still run `fn`: the caller's unwind would destroy what they use.
  // (Declared before the pool, so even a premature return leaves them
  // alive until the pool has joined its workers.)
  std::atomic<int> finished{0};
  const std::function<void(std::size_t)> fn = [&finished](std::size_t i) {
    if (i == 0) throw std::runtime_error("chunk 0 failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished.fetch_add(1);
  };
  ThreadPool pool(4);
  int seen_at_throw = -1;
  try {
    pool.ParallelFor(4, fn);
    ADD_FAILURE() << "ParallelFor swallowed the chunk's exception";
  } catch (const std::runtime_error& error) {
    seen_at_throw = finished.load();
    EXPECT_STREQ(error.what(), "chunk 0 failed");
  }
  EXPECT_EQ(seen_at_throw, 3);
}

TEST(ThreadPoolTest, HelperWithoutPoolRunsInOrderOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ParallelFor(nullptr, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  // Inline, the first exception leaves at once: no later index runs.
  order.clear();
  EXPECT_THROW(ParallelFor(nullptr, 5,
                           [&](std::size_t i) {
                             order.push_back(i);
                             if (i == 2) throw std::runtime_error("index 2");
                           }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ThreadPoolTest, HelperWithOneIndexRunsOnCaller) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  int calls = 0;
  ParallelFor(&pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ParallelFor(&pool, 0, [](std::size_t) { FAIL(); });
}

// ---------- ByteArena ----------

/// One arena "round": `slabs` slab-sized allocations, all released before
/// the round's Reclaim.
void ArenaRound(ByteArena& arena, std::size_t slabs) {
  std::vector<ByteArena::Allocation> held;
  for (std::size_t i = 0; i < slabs; ++i) {
    held.push_back(arena.Allocate(arena.block_bytes()));
  }
}

TEST(ByteArenaTest, ReclaimCountsOnlyBlocksPutOnTheFreeList) {
  ByteArena arena(64);
  {
    const ByteArena::Allocation slab = arena.Allocate(64);
    const ByteArena::Allocation oversized = arena.Allocate(65);
    EXPECT_NE(slab.block, oversized.block);
  }
  // The slab goes back on the free list; the oversized one-off block is
  // freed and is not a reuse.
  EXPECT_EQ(arena.Reclaim(), 1u);
  EXPECT_EQ(arena.blocks_recycled(), 1u);
  EXPECT_EQ(arena.blocks_held(), 1u);
  EXPECT_EQ(arena.blocks_created(), 2u);
}

TEST(ByteArenaTest, SteadyStateRoundsCreateNoSlabs) {
  // The free list keeps every slab the finished round handed out, however
  // many, so each later round of the same width is served from it.
  constexpr std::size_t kSlabs = 40;
  ByteArena arena(64);
  for (int round = 0; round < 3; ++round) {
    ArenaRound(arena, kSlabs);
    EXPECT_EQ(arena.Reclaim(), kSlabs) << "round " << round;
  }
  EXPECT_EQ(arena.blocks_created(), kSlabs);
  EXPECT_EQ(arena.blocks_recycled(), 3 * kSlabs);
  EXPECT_EQ(arena.blocks_held(), kSlabs);
}

TEST(ByteArenaTest, FreeListFollowsTheLastRoundsWorkingSet) {
  ByteArena arena(64);
  ArenaRound(arena, 20);
  EXPECT_EQ(arena.Reclaim(), 20u);
  // A narrower round keeps only the slabs it used; the 15 it left idle on
  // the free list are freed.
  ArenaRound(arena, 5);
  EXPECT_EQ(arena.Reclaim(), 5u);
  EXPECT_EQ(arena.blocks_held(), 5u);
  EXPECT_EQ(arena.blocks_created(), 20u);
}

}  // namespace
}  // namespace simdc
