// Statistics helpers: running moments, percentiles, histograms, and the
// joint Shannon entropy used by Table II's channel ranking (Formula 1).
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
  void merge(const RunningStats& other) noexcept;

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

/// Shannon entropy (bits) of a discrete sample: H = -sum p_j log2 p_j,
/// where p_j is the empirical frequency of each distinct value.
double shannon_entropy(std::span<const double> samples);

/// Joint entropy of a channel per Formula (1) of the paper: the channel is a
/// tuple of independent data fields X_1..X_n; the joint entropy is the sum of
/// the per-field entropies. `fields[i]` is the sample vector for field X_i.
double joint_channel_entropy(std::span<const std::vector<double>> fields);

/// Coefficient of determination R^2 between observations and predictions.
double r_squared(std::span<const double> observed, std::span<const double> predicted);

/// Simple fixed-width histogram for entropy estimation of continuous fields:
/// quantizes samples into `bins` equal bins over [min,max] and returns the
/// entropy of the quantized distribution.
double binned_entropy(std::span<const double> samples, int bins);

/// Exponentially-weighted moving average, as used by the kernel loadavg.
class Ewma {
 public:
  /// `alpha` is the weight of the new observation (0 < alpha <= 1).
  explicit Ewma(double alpha) : alpha_(alpha) {}

  double update(double x) noexcept {
    value_ = initialized_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    initialized_ = true;
    return value_;
  }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace cleaks
