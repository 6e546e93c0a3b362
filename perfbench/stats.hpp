// Percentile selection for the benchmark's reports.
//
// A timing is reported as its median plus the highest percentile the
// sample supports: a percentile p is supported only when at least ten
// samples lie beyond it, i.e. n * (1 - p/100) >= 10. So p99 needs 1000
// samples, p90 needs 100 and the median needs 20.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// True when at least ten of `n` samples lie beyond the p-th percentile.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// One reported percentile: which one, its value and the sample count.
struct Quantile {
  double p = 50.0;
  double value = 0.0;
  std::size_t n = 0;
  [[nodiscard]] std::string label() const;  // "p99", "p90", "p50"
};

/// The p-th percentile of `xs` (linear interpolation, as util/stats).
/// Requires a non-empty sample.
[[nodiscard]] Quantile quantile(const std::vector<double>& xs, double p);

/// The highest of p99, p90 and p50 that `xs` supports; the median when
/// none is (fewer than 20 samples). Requires a non-empty sample.
[[nodiscard]] Quantile tail(const std::vector<double>& xs);

}  // namespace perfbench
