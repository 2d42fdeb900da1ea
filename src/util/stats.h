// Statistics helpers: running moments, percentiles, correlation, and the
// binned entropy that UvmAnalyzer sums per field for Table II's channel
// ranking (Formula 1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace cleaks {

/// Online mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// p-th percentile (0 <= p <= 100) with linear interpolation.
/// Copies and sorts; fine for experiment-sized data.
double percentile(std::span<const double> values, double p);

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 when either series is constant or lengths mismatch.
double pearson_correlation(std::span<const double> a, std::span<const double> b);

/// Coefficient of determination R^2 between observations and predictions.
double r_squared(std::span<const double> observed, std::span<const double> predicted);

/// Simple fixed-width histogram for entropy estimation of continuous fields:
/// quantizes samples into `bins` equal bins over [min,max] and returns the
/// entropy of the quantized distribution.
double binned_entropy(std::span<const double> samples, int bins);

}  // namespace cleaks
