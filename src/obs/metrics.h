// Deterministic metrics registry for the simulator's own telemetry.
//
// The paper's premise is that unguarded kernel telemetry becomes an attack
// surface; this module is the reproduction watching itself — counters,
// gauges and fixed-bucket histograms over the engine's hot paths
// (Datacenter::step, CrossValidator::scan, pseudo-fs reads).
//
// Determinism contract (the PR-1 invariant, extended to telemetry):
// metric values are *bitwise identical for every CLEAKS_THREADS value*.
// Every counter and histogram cell is one relaxed atomic, and everything
// added to one is an unsigned integer (counter increments, histogram
// bucket counts and sums). Integer sums commute, so once a parallel
// region has joined, the value cannot show which lane ran which chunk.
// Gauges hold doubles but are a single last-write slot, set with
// deterministically computed values.
// Metrics whose values legitimately depend on the execution environment
// (lane counts, wall-clock timings) are tagged Scope::kRuntime and excluded
// from the determinism digest.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cleaks::obs {

/// kSim values derive purely from simulated state: identical across thread
/// counts and pinned by the determinism digest. kRuntime values (the
/// pool's chunk count, anything wall-clock) may vary run to run.
enum class Scope { kSim, kRuntime };

/// Monotonic counter: one relaxed atomic, so inc() is wait-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Scope scope() const noexcept { return scope_; }

 private:
  friend class Registry;
  Counter(std::string name, std::string help, Scope scope)
      : name_(std::move(name)), help_(std::move(help)), scope_(scope) {}
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  std::atomic<std::uint64_t> value_{0};
  std::string name_;
  std::string help_;
  Scope scope_;
};

/// Last-value gauge. set() must be called with deterministically computed
/// values for Scope::kSim gauges; the store itself is atomic so concurrent
/// readers (e.g. a /proc/containerleaks render mid-scan) are race-free.
class Gauge {
 public:
  void set(double value) noexcept {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof value);
    __builtin_memcpy(&bits, &value, sizeof bits);
    bits_.store(bits, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const noexcept {
    const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    double value;
    __builtin_memcpy(&value, &bits, sizeof value);
    return value;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Scope scope() const noexcept { return scope_; }

 private:
  friend class Registry;
  Gauge(std::string name, std::string help, Scope scope)
      : name_(std::move(name)), help_(std::move(help)), scope_(scope) {}
  void reset() noexcept { set(0.0); }

  std::atomic<std::uint64_t> bits_{0};
  std::string name_;
  std::string help_;
  Scope scope_;
};

/// Fixed-bucket histogram over unsigned integer observations (sim-time
/// durations in ns, power in mW, ...). Integer-only state keeps the
/// totals independent of observation order; callers quantize doubles
/// before observing (the quantization itself is deterministic on
/// bitwise-identical inputs).
class Histogram {
 public:
  void observe(std::uint64_t value) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts (bounds().size() entries, non-cumulative).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t overflow() const noexcept;  ///< > last bound
  [[nodiscard]] std::uint64_t sum() const noexcept;
  [[nodiscard]] std::uint64_t total_count() const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Scope scope() const noexcept { return scope_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::string help, Scope scope,
            std::vector<std::uint64_t> bounds);
  void reset() noexcept;

  std::string name_;
  std::string help_;
  Scope scope_;
  std::vector<std::uint64_t> bounds_;  ///< ascending inclusive upper bounds
  /// [0..B-1] bucket counts, [B] overflow, [B+1] sum (B = bounds_.size()).
  std::vector<std::atomic<std::uint64_t>> cells_;
};

/// One metric as it appears in a snapshot.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  std::string help;
  Scope scope = Scope::kSim;
  Kind kind = Kind::kCounter;

  std::uint64_t counter = 0;
  double gauge = 0.0;

  std::vector<std::uint64_t> hist_bounds;
  std::vector<std::uint64_t> hist_counts;
  std::uint64_t hist_overflow = 0;
  std::uint64_t hist_sum = 0;
};

/// A point-in-time view of a registry, sorted by metric name.
struct Snapshot {
  std::vector<MetricValue> metrics;

  /// FNV-1a over every metric of `scope` (name, kind and value bytes).
  /// The kSim digest is the value the determinism tests pin across
  /// CLEAKS_THREADS=1/2/4/8.
  [[nodiscard]] std::uint64_t digest(Scope scope) const;
};

/// Named metric families with stable addresses: handles returned by
/// counter()/gauge()/histogram() stay valid for the registry's lifetime
/// (reset() zeroes values in place, it never invalidates handles), so
/// instrumentation sites cache them in static references.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name. help/scope are fixed by the first caller.
  Counter& counter(std::string_view name, std::string_view help = "",
                   Scope scope = Scope::kSim);
  Gauge& gauge(std::string_view name, std::string_view help = "",
               Scope scope = Scope::kSim);
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds,
                       std::string_view help = "",
                       Scope scope = Scope::kSim);

  /// Point-in-time view. Safe to call while other threads are
  /// incrementing (relaxed atomics); deterministic when the system is
  /// quiescent.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every value in place; handles stay valid.
  void reset();

  /// The process-wide registry every instrumentation site uses.
  static Registry& global();

 private:
  mutable std::mutex mu_;  ///< guards the vectors during registration
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cleaks::obs
