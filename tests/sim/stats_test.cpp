#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "sim/rng.hpp"

namespace ccredf::sim {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(OnlineStats, KnownSequence) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of that classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, WelfordMatchesNaiveOnRandomData) {
  Rng rng(5);
  OnlineStats s;
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.uniform_real(-100.0, 100.0);
    s.add(v);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = (sq - sum * mean) / (kN - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(6);
  OnlineStats whole, a, b;
  for (int i = 0; i < 1'000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2);
  b.merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(OnlineStats, DurationOverloads) {
  OnlineStats s;
  s.add(Duration::nanoseconds(10));
  s.add(Duration::nanoseconds(20));
  EXPECT_EQ(s.mean_duration(), Duration::nanoseconds(15));
  EXPECT_EQ(s.max_duration(), Duration::nanoseconds(20));
  EXPECT_EQ(s.min_duration(), Duration::nanoseconds(10));
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ConfigError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ConfigError);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, CountsFallInCorrectBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(3.0);   // bin 1
  h.add(9.9);   // bin 4
  EXPECT_EQ(h.bin_count(0), 1);
  EXPECT_EQ(h.bin_count(1), 1);
  EXPECT_EQ(h.bin_count(4), 1);
  EXPECT_EQ(h.count(), 3);
}

TEST(Histogram, OutOfRangeSaturates) {
  Histogram h(0.0, 10.0, 5);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.bin_count(0), 1);
  EXPECT_EQ(h.bin_count(4), 1);
}

TEST(Histogram, ExactQuantilesOnSmallSamples) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.0);
}

TEST(Histogram, QuantileRejectsOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.5);
  EXPECT_THROW((void)h.quantile(-0.1), ConfigError);
  EXPECT_THROW((void)h.quantile(1.1), ConfigError);
}

TEST(Histogram, BinnedQuantileFallbackAfterCap) {
  Histogram h(0.0, 1000.0, 100);
  Rng rng(8);
  // Exceed the raw-sample cap (2^16) to force the binned path.
  for (int i = 0; i < 100'000; ++i) h.add(rng.uniform_real(0.0, 1000.0));
  EXPECT_NEAR(h.quantile(0.5), 500.0, 20.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 20.0);
}

TEST(Histogram, RenderMentionsNonEmptyBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);
  h.add(1.5);
  const std::string out = h.render();
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("2"), std::string::npos);
}

}  // namespace
}  // namespace ccredf::sim
