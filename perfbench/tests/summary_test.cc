#include "harness/summary.h"

#include <gtest/gtest.h>

#include <cmath>

namespace n2j {
namespace perfbench {
namespace {

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = hi; i >= lo; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(Range(1, 100), 0.5), 50);
  EXPECT_EQ(Percentile(Range(1, 100), 0.95), 95);
  EXPECT_EQ(Percentile(Range(1, 100), 1.0), 100);
  EXPECT_EQ(Percentile(Range(1, 200), 0.95), 190);
  EXPECT_EQ(Percentile({4.5}, 0.95), 4.5);
  EXPECT_EQ(Percentile({3, 1, 2}, 0.5), 2);
}

TEST(Percentile, MinSamplesLeaveTenBeyondTheRank) {
  EXPECT_EQ(MinSamplesFor(0.95), 200u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  // At the minimum, exactly ten samples lie above the percentile.
  std::vector<double> v = Range(1, 200);
  double p95 = Percentile(v, 0.95);
  int beyond = 0;
  for (double x : v) beyond += x > p95;
  EXPECT_EQ(beyond, 10);
}

TEST(GeoMean, OfPositiveValues) {
  EXPECT_DOUBLE_EQ(GeoMean({1, 4}), 2);
  EXPECT_NEAR(GeoMean({2, 8, 4}), 4, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean({3}), 3);
}

TEST(TrimmedMean, DropsTheSameShareAtBothEnds) {
  EXPECT_DOUBLE_EQ(TrimmedMean({3, 1, 2}, 0.0), 2);
  // 20 samples, 5% = one dropped at each end: the 1000 stall goes.
  std::vector<double> v = Range(1, 19);
  v.push_back(1000);
  EXPECT_DOUBLE_EQ(TrimmedMean(v, 0.05), 10.5);  // the mean of 2..19
  EXPECT_DOUBLE_EQ(TrimmedMean(Range(1, 100), 0.25), 50.5);
}

TEST(TrimmedMean, MovesInProportionToAHostPhaseShare) {
  // Samples from a fast (1.0) and a slow (1.4) phase: the median jumps
  // from one phase to the other as the slow share crosses one half; the
  // trimmed mean moves by a tenth of the gap per tenth of share.
  auto mix = [](int slow_of_100) {
    std::vector<double> v;
    for (int i = 0; i < 100; ++i) v.push_back(i < slow_of_100 ? 1.4 : 1.0);
    return v;
  };
  EXPECT_DOUBLE_EQ(Percentile(mix(49), 0.5), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(mix(51), 0.5), 1.4);
  EXPECT_NEAR(TrimmedMean(mix(51), 0.05) - TrimmedMean(mix(49), 0.05),
              0.4 * 2 / 90, 1e-12);
}

TEST(ClassGeoMeanPercentile, CombinesPerClassPercentiles) {
  // Two classes 100x apart: per-class medians 100 and 10000 combine to
  // 1000. A median over the pooled samples would land on the boundary
  // between the classes instead.
  std::vector<double> fast(200), slow(200);
  for (int i = 0; i < 200; ++i) {
    fast[i] = 99.5 + i * 0.005;
    slow[i] = 9950 + i * 0.5;
  }
  Result<double> p50 =
      ClassGeoMeanPercentile({fast, slow}, {"fast", "slow"}, 0.5);
  ASSERT_TRUE(p50.ok());
  EXPECT_NEAR(*p50,
              std::sqrt(Percentile(fast, 0.5) * Percentile(slow, 0.5)),
              1e-9);
  EXPECT_NEAR(*p50, 1000, 1);
  Result<double> p95 =
      ClassGeoMeanPercentile({fast, slow}, {"fast", "slow"}, 0.95);
  ASSERT_TRUE(p95.ok());
  EXPECT_NEAR(*p95, std::sqrt(fast[189] * slow[189]), 1e-9);
}

TEST(ClassGeoMeanPercentile, RefusesP95WithFewerThan200Samples) {
  std::vector<double> full = Range(1, 200);
  std::vector<double> short_class = Range(1, 199);
  Result<double> r =
      ClassGeoMeanPercentile({full, short_class}, {"q1", "q5"}, 0.95);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("q5"), std::string::npos);
  EXPECT_NE(r.status().ToString().find("199"), std::string::npos);
  // The median needs only 20, so the same samples give a p50.
  EXPECT_TRUE(
      ClassGeoMeanPercentile({full, short_class}, {"q1", "q5"}, 0.5).ok());
  EXPECT_TRUE(ClassGeoMeanPercentile({full, full}, {"q1", "q5"}, 0.95).ok());
}

TEST(ClassGeoMeanPercentile, RefusesNonPositiveLatencies) {
  std::vector<double> zeros(200, 0.0);
  EXPECT_FALSE(ClassGeoMeanPercentile({zeros}, {"q1"}, 0.5).ok());
  EXPECT_FALSE(ClassGeoMeanTrimmedMean({zeros}, {"q1"}, 0.05).ok());
}

TEST(ClassGeoMeanTrimmedMean, CombinesPerClassTrimmedMeans) {
  std::vector<double> fast(20, 2.0), slow(20, 50.0);
  fast[0] = 100;  // one stall per class, trimmed away
  slow[3] = 0.5;
  Result<double> m =
      ClassGeoMeanTrimmedMean({fast, slow}, {"fast", "slow"}, 0.05);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(*m, 10, 1e-9);
  Result<double> refused = ClassGeoMeanTrimmedMean(
      {fast, std::vector<double>(19, 1.0)}, {"fast", "q5"}, 0.05);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("q5"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
}  // namespace n2j
