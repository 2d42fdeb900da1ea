#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace cleaks {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson_correlation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  RunningStats sa, sb;
  for (double x : a) sa.add(x);
  for (double x : b) sb.add(x);
  if (sa.stddev() == 0.0 || sb.stddev() == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  }
  cov /= static_cast<double>(a.size());
  return cov / (sa.stddev() * sb.stddev());
}

namespace {

template <typename Map>
double entropy_of_counts(const Map& counts, std::size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& [value, count] : counts) {
    const double p = static_cast<double>(count) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace

double shannon_entropy(std::span<const double> samples) {
  std::unordered_map<double, std::size_t> counts;
  for (double s : samples) ++counts[s];
  return entropy_of_counts(counts, samples.size());
}

double joint_channel_entropy(std::span<const std::vector<double>> fields) {
  double h = 0.0;
  for (const auto& field : fields) {
    h += shannon_entropy(std::span<const double>{field});
  }
  return h;
}

double r_squared(std::span<const double> observed, std::span<const double> predicted) {
  if (observed.size() != predicted.size() || observed.empty()) return 0.0;
  RunningStats so;
  for (double o : observed) so.add(o);
  double ss_res = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double e = observed[i] - predicted[i];
    ss_res += e * e;
  }
  const double ss_tot = so.variance() * static_cast<double>(observed.size());
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double binned_entropy(std::span<const double> samples, int bins) {
  if (samples.empty() || bins <= 0) return 0.0;
  RunningStats s;
  for (double x : samples) s.add(x);
  const double lo = s.min();
  const double hi = s.max();
  if (hi <= lo) return 0.0;  // constant field carries no information
  std::map<int, std::size_t> counts;
  for (double x : samples) {
    int bin = static_cast<int>((x - lo) / (hi - lo) * bins);
    bin = std::clamp(bin, 0, bins - 1);
    ++counts[bin];
  }
  return entropy_of_counts(counts, samples.size());
}

}  // namespace cleaks
