#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/histogram.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace rafiki {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsAreSane) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(42.0));
  EXPECT_NEAR(stats.mean(), 42.0, 1.0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic) {
  Rng parent1(5), parent2(5);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(OnlineStats, MatchesBatchStats) {
  const std::vector<double> xs = {1.0, 4.0, 4.0, 6.0, 7.5, -2.0};
  OnlineStats online;
  for (double x : xs) online.add(x);
  EXPECT_NEAR(online.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(online.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(online.min(), -2.0);
  EXPECT_DOUBLE_EQ(online.max(), 7.5);
}

TEST(OnlineStats, MergeEqualsCombinedStream) {
  OnlineStats a, b, all;
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian(0, 1);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
}

TEST(Stats, CorrelationSigns) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y_up = {2, 4, 6, 8, 10};
  const std::vector<double> y_down = {5, 4, 3, 2, 1};
  EXPECT_NEAR(correlation(x, y_up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, y_down), -1.0, 1e-12);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 0.5 * i);
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-10);
  EXPECT_NEAR(fit.slope, 0.5, 1e-10);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to first bin
  h.add(0.5);
  h.add(9.9);
  h.add(25.0);   // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, QuantileInterpolatesWithinBins) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);  // one sample per bin
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_LE(h.quantile(1.0), 100.0);

  // Quantiles are monotone in q.
  double prev = h.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }

  // Empty histogram reports its lower bound.
  EXPECT_EQ(Histogram(5.0, 10.0, 4).quantile(0.5), 5.0);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0, 4, 2);
  h.add(1);
  h.add(3);
  h.add(3.5);
  const auto text = h.render(10);
  EXPECT_NE(text.find("1"), std::string::npos);
  EXPECT_NE(text.find("2"), std::string::npos);
}

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table table({"name", "value"});
  table.add_row({"alpha", Table::num(1.5, 1)});
  table.add_row({"beta", Table::ops(78556)});
  const auto text = table.render();
  EXPECT_NE(text.find("| alpha"), std::string::npos);
  EXPECT_NE(text.find("78,556"), std::string::npos);
  const auto csv = table.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("\"78,556\""), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormattersBehave) {
  EXPECT_EQ(Table::pct(41.4), "41.4%");
  EXPECT_EQ(Table::ops(-1234567), "-1,234,567");
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {0u, 1u, 2u, 4u, 16u}) {
    std::vector<int> hits(37, 0);
    parallel_for(hits.size(), threads, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 37) << threads << " threads";
  }
  parallel_for(0, 4, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ParallelFor, FirstExceptionReachesCallerAfterJoin) {
  for (std::size_t threads : {1u, 4u}) {
    std::atomic<int> running{0};
    try {
      parallel_for(64, threads, [&](std::size_t i) {
        running.fetch_add(1, std::memory_order_relaxed);
        if (i == 5) throw std::runtime_error("task 5 failed");
        running.fetch_sub(1, std::memory_order_relaxed);
      });
      ADD_FAILURE() << "exception swallowed at " << threads << " threads";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 5 failed");
    }
    // Every task but the thrower finished before the caller saw the error.
    EXPECT_EQ(running.load(std::memory_order_relaxed), 1) << threads << " threads";
  }
}

}  // namespace
}  // namespace rafiki
