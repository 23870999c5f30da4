#include "harness/summary.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace n2j {
namespace perfbench {

namespace {

// 1-based nearest rank of the q-th percentile among n samples.
size_t Rank(size_t n, double q) {
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  N2J_CHECK(!samples.empty());
  size_t k = Rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (n - Rank(n, q) < kTailSamples) ++n;
  return n;
}

double GeoMean(const std::vector<double>& values) {
  N2J_CHECK(!values.empty());
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double TrimmedMean(std::vector<double> samples, double trim) {
  N2J_CHECK(!samples.empty() && trim >= 0 && trim < 0.5);
  std::sort(samples.begin(), samples.end());
  const size_t drop =
      static_cast<size_t>(trim * static_cast<double>(samples.size()));
  double sum = 0;
  for (size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

namespace {

// Applies `stat` to each class and combines by geometric mean; refuses
// classes with fewer than `need` samples or a non-positive statistic.
template <typename Stat>
Result<double> CombineClasses(
    const std::vector<std::vector<double>>& per_class,
    const std::vector<std::string>& class_names, size_t need,
    const char* what, Stat stat) {
  N2J_CHECK(per_class.size() == class_names.size() && !per_class.empty());
  std::vector<double> per_class_value;
  for (size_t c = 0; c < per_class.size(); ++c) {
    if (per_class[c].size() < need) {
      return Status::InvalidArgument(StrFormat(
          "class %s has %zu samples; %s needs at least %zu",
          class_names[c].c_str(), per_class[c].size(), what, need));
    }
    double v = stat(per_class[c]);
    if (!(v > 0)) {
      return Status::InvalidArgument("class " + class_names[c] +
                                     " has a non-positive " + what);
    }
    per_class_value.push_back(v);
  }
  return GeoMean(per_class_value);
}

}  // namespace

Result<double> ClassGeoMeanPercentile(
    const std::vector<std::vector<double>>& per_class,
    const std::vector<std::string>& class_names, double q) {
  const std::string what = StrFormat("p%g", q * 100);
  return CombineClasses(
      per_class, class_names, MinSamplesFor(q), what.c_str(),
      [q](const std::vector<double>& v) { return Percentile(v, q); });
}

Result<double> ClassGeoMeanTrimmedMean(
    const std::vector<std::vector<double>>& per_class,
    const std::vector<std::string>& class_names, double trim) {
  return CombineClasses(
      per_class, class_names, MinSamplesFor(0.5), "trimmed mean",
      [trim](const std::vector<double>& v) { return TrimmedMean(v, trim); });
}

}  // namespace perfbench
}  // namespace n2j
