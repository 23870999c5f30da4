#ifndef N2J_PERFBENCH_SUMMARY_H_
#define N2J_PERFBENCH_SUMMARY_H_

// Latency statistics. Every latency statistic is taken per query class
// first and only then combined across classes by geometric mean, so a
// statistic never falls on the boundary between two classes whose
// latencies differ by 100x.

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace n2j {
namespace perfbench {

/// Nearest-rank percentile (0 < q <= 1) of unsorted samples: the
/// smallest sample with at least q of the samples at or below it.
/// Requires a non-empty sample.
double Percentile(std::vector<double> samples, double q);

/// Samples a percentile needs so that at least `kTailSamples` lie
/// strictly beyond its rank: 20 for the median, 200 for p95.
constexpr size_t kTailSamples = 10;
size_t MinSamplesFor(double q);

/// Geometric mean of positive values. Requires a non-empty input.
double GeoMean(const std::vector<double>& values);

/// Mean of the samples left after dropping the fastest and the slowest
/// `trim` share (0 <= trim < 0.5). Unlike a median, it moves in
/// proportion as the share of samples taken in a slower host phase
/// grows, instead of jumping between phases when that share nears half.
/// Requires a non-empty sample.
double TrimmedMean(std::vector<double> samples, double trim);

/// The q-th percentile of each class, combined by geometric mean.
/// Refuses (error status naming the class and its count) when any class
/// has fewer than MinSamplesFor(q) samples or a non-positive value.
Result<double> ClassGeoMeanPercentile(
    const std::vector<std::vector<double>>& per_class,
    const std::vector<std::string>& class_names, double q);

/// The trimmed mean of each class, combined by geometric mean, with the
/// sample requirement of the median.
Result<double> ClassGeoMeanTrimmedMean(
    const std::vector<std::vector<double>>& per_class,
    const std::vector<std::string>& class_names, double trim);

}  // namespace perfbench
}  // namespace n2j

#endif  // N2J_PERFBENCH_SUMMARY_H_
