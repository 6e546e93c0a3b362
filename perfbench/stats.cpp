#include "stats.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

bool percentile_supported(std::size_t n, double p) {
  // Small epsilon: 1000 * (1 - 0.99) is 9.999999999999991 in doubles.
  return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

std::string Quantile::label() const {
  return "p" + std::to_string(static_cast<int>(std::lround(p)));
}

Quantile quantile(const std::vector<double>& xs, double p) {
  if (xs.empty()) throw std::invalid_argument("quantile of an empty sample");
  return {p, midas::percentile(xs, p), xs.size()};
}

Quantile tail(const std::vector<double>& xs) {
  for (double p : {99.0, 90.0})
    if (percentile_supported(xs.size(), p)) return quantile(xs, p);
  return quantile(xs, 50.0);
}

}  // namespace perfbench
