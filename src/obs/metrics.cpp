#include "obs/metrics.h"

#include <algorithm>

#include "util/fnv.h"

namespace cleaks::obs {

Histogram::Histogram(std::string name, std::string help, Scope scope,
                     std::vector<std::uint64_t> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      scope_(scope),
      bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  const std::size_t slots = bounds_.size() + 2;  // buckets + overflow + sum
  stride_ = (slots + 7) & ~std::size_t{7};       // cache-line multiple
  cells_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(ThreadPool::kMaxLanes) * stride_);
}

void Histogram::observe(std::uint64_t value) noexcept {
  const auto lane = static_cast<std::size_t>(ThreadPool::current_lane());
  // Bounds are inclusive; a value past the last one lands in the overflow
  // slot, bounds_.size().
  const auto slot = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  cells_[cell(lane, slot)].fetch_add(1, std::memory_order_relaxed);
  cells_[cell(lane, bounds_.size() + 1)].fetch_add(value,
                                                   std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> merged(bounds_.size(), 0);
  for (std::size_t lane = 0; lane < ThreadPool::kMaxLanes; ++lane) {
    for (std::size_t b = 0; b < bounds_.size(); ++b) {
      merged[b] += cells_[cell(lane, b)].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

std::uint64_t Histogram::overflow() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t lane = 0; lane < ThreadPool::kMaxLanes; ++lane) {
    total += cells_[cell(lane, bounds_.size())].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t lane = 0; lane < ThreadPool::kMaxLanes; ++lane) {
    total +=
        cells_[cell(lane, bounds_.size() + 1)].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::total_count() const {
  std::uint64_t total = overflow();
  for (auto count : counts()) total += count;
  return total;
}

void Histogram::reset() noexcept {
  for (auto& cell : cells_) cell.store(0, std::memory_order_relaxed);
}

std::uint64_t Snapshot::digest(Scope scope) const {
  Fnv64 hash;
  for (const auto& metric : metrics) {
    if (metric.scope != scope) continue;
    hash.add_string(metric.name);
    hash.add_u64(static_cast<std::uint64_t>(metric.kind));
    switch (metric.kind) {
      case MetricValue::Kind::kCounter:
        hash.add_u64(metric.counter);
        break;
      case MetricValue::Kind::kGauge:
        hash.add_double(metric.gauge);
        break;
      case MetricValue::Kind::kHistogram:
        for (auto bound : metric.hist_bounds) hash.add_u64(bound);
        for (auto count : metric.hist_counts) hash.add_u64(count);
        hash.add_u64(metric.hist_overflow);
        hash.add_u64(metric.hist_sum);
        break;
    }
  }
  return hash.hash;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Scope scope) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& existing : counters_) {
    if (existing->name_ == name) return *existing;
  }
  counters_.push_back(std::unique_ptr<Counter>(new Counter(
      std::string(name), std::string(help), scope, /*per_lane=*/false)));
  return *counters_.back();
}

Counter& Registry::lane_counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& existing : counters_) {
    if (existing->name_ == name) return *existing;
  }
  counters_.push_back(std::unique_ptr<Counter>(
      new Counter(std::string(name), std::string(help), Scope::kRuntime,
                  /*per_lane=*/true)));
  return *counters_.back();
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Scope scope) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& existing : gauges_) {
    if (existing->name_ == name) return *existing;
  }
  gauges_.push_back(std::unique_ptr<Gauge>(
      new Gauge(std::string(name), std::string(help), scope)));
  return *gauges_.back();
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<std::uint64_t> bounds,
                               std::string_view help, Scope scope) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& existing : histograms_) {
    if (existing->name_ == name) return *existing;
  }
  histograms_.push_back(std::unique_ptr<Histogram>(new Histogram(
      std::string(name), std::string(help), scope, std::move(bounds))));
  return *histograms_.back();
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.metrics.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& counter : counters_) {
    MetricValue value;
    value.name = counter->name_;
    value.help = counter->help_;
    value.scope = counter->scope_;
    value.kind = MetricValue::Kind::kCounter;
    value.counter = counter->value();
    if (counter->per_lane_) {
      for (int lane = 0; lane < ThreadPool::kMaxLanes; ++lane) {
        value.lanes.push_back(counter->lane_value(lane));
      }
      while (!value.lanes.empty() && value.lanes.back() == 0) {
        value.lanes.pop_back();
      }
    }
    snap.metrics.push_back(std::move(value));
  }
  for (const auto& gauge : gauges_) {
    MetricValue value;
    value.name = gauge->name_;
    value.help = gauge->help_;
    value.scope = gauge->scope_;
    value.kind = MetricValue::Kind::kGauge;
    value.gauge = gauge->value();
    snap.metrics.push_back(std::move(value));
  }
  for (const auto& histogram : histograms_) {
    MetricValue value;
    value.name = histogram->name_;
    value.help = histogram->help_;
    value.scope = histogram->scope_;
    value.kind = MetricValue::Kind::kHistogram;
    value.hist_bounds = histogram->bounds();
    value.hist_counts = histogram->counts();
    value.hist_overflow = histogram->overflow();
    value.hist_sum = histogram->sum();
    snap.metrics.push_back(std::move(value));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& counter : counters_) counter->reset();
  for (auto& gauge : gauges_) gauge->reset();
  for (auto& histogram : histograms_) histogram->reset();
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

}  // namespace cleaks::obs
