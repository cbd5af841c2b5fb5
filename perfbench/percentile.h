// Percentile rule shared by every number the benchmark reports.
//
// Nearest-rank percentiles over raw samples, refusing any percentile that
// has fewer than ten samples beyond it: p99 needs 1000 samples, p95 200,
// p90 100, p50 20. A refused percentile is reported as "n/a", never as a
// value read off the last few samples.

#ifndef PRAGUE_PERFBENCH_PERCENTILE_H_
#define PRAGUE_PERFBENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace prague::perfbench {

/// Samples a percentile must have beyond it before it is reported.
inline constexpr size_t kSamplesBeyond = 10;

/// \brief Fewest samples that support percentile \p p (0 < p < 1).
inline size_t SamplesNeeded(double p) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(kSamplesBeyond) / (1.0 - p) - 1e-9));
}

/// \brief Nearest-rank percentile \p p of \p samples, or nullopt when
/// fewer than SamplesNeeded(p) samples exist.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  if (samples.empty() || samples.size() < SamplesNeeded(p)) {
    return std::nullopt;
  }
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size()) - 1e-9));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

/// \brief Median of a handful of repeats (set-up times); no sample floor.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace prague::perfbench

#endif  // PRAGUE_PERFBENCH_PERCENTILE_H_
