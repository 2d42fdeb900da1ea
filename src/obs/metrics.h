// Deterministic metrics registry for the simulator's own telemetry.
//
// The paper's premise is that unguarded kernel telemetry becomes an attack
// surface; this module is the reproduction watching itself — counters,
// gauges and fixed-bucket histograms over the engine's hot paths
// (Datacenter::step, CrossValidator::scan, pseudo-fs reads).
//
// Determinism contract (the PR-1 invariant, extended to telemetry):
// metric values are *bitwise identical for every CLEAKS_THREADS value*.
// Two design rules make that hold without locks on the hot path:
//  * storage is sharded per thread-pool lane (ThreadPool::current_lane())
//    and merged in lane order on the caller thread at snapshot time;
//  * everything merged across shards is an unsigned integer (counter
//    increments, histogram bucket counts and sums), so the merge is a
//    commutative integer sum — the nondeterministic lane-to-chunk
//    assignment of the pool cannot show through. Gauges hold doubles but
//    are a single last-write slot, set with deterministically computed
//    values.
// Metrics whose values legitimately depend on the execution environment
// (lane counts, wall-clock timings) are tagged Scope::kRuntime and excluded
// from the determinism digest.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_pool.h"

namespace cleaks::obs {

/// kSim values derive purely from simulated state: identical across thread
/// counts and pinned by the determinism digest. kRuntime values (lane
/// utilization, anything wall-clock) may vary run to run.
enum class Scope { kSim, kRuntime };

/// Monotonic counter, lane-sharded. inc() is wait-free (one relaxed atomic
/// add on the calling lane's own cache line).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Shards merged in lane order (an integer sum, so the value is
  /// independent of which lane executed which chunk).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// One lane's contribution (utilization breakdowns; Scope::kRuntime).
  [[nodiscard]] std::uint64_t lane_value(int lane) const noexcept {
    return shards_[static_cast<std::size_t>(lane)].value.load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Scope scope() const noexcept { return scope_; }

 private:
  friend class Registry;
  Counter(std::string name, std::string help, Scope scope, bool per_lane)
      : name_(std::move(name)),
        help_(std::move(help)),
        scope_(scope),
        per_lane_(per_lane) {}

  static std::size_t shard_index() noexcept {
    return static_cast<std::size_t>(ThreadPool::current_lane());
  }
  void reset() noexcept {
    for (auto& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, ThreadPool::kMaxLanes> shards_{};
  std::string name_;
  std::string help_;
  Scope scope_;
  bool per_lane_;  ///< expose the per-lane breakdown in snapshots
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
/// lane-shard merge deterministic; callers quantize doubles before
/// observing (the quantization itself is deterministic on bitwise-identical
/// inputs).
class Histogram {
 public:
  void observe(std::uint64_t value) noexcept;
  /// `times` observes of the same value in O(1): everything merged is an
  /// unsigned integer, so one count/sum add of n is bitwise-identical to n
  /// individual observe() calls — the property the O(active) facility
  /// aggregation leans on for parked-server telemetry.
  void observe_n(std::uint64_t value, std::uint64_t times) noexcept;
  /// The slot observe(value) would increment: a bucket index, or
  /// bounds().size() for overflow. Callers maintaining external per-slot
  /// tallies (edge-triggered aggregates) use this to stay bit-compatible.
  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const noexcept;
  /// Fold externally-tallied observations in: `slots[i]` observations per
  /// slot (bounds().size() + 1 entries, overflow last) and their value
  /// `sum`, each applied `times` times. Equivalent to — and bitwise
  /// indistinguishable from — replaying every individual observe().
  void add_bucket_counts(const std::uint64_t* slots, std::size_t n_slots,
                         std::uint64_t sum, std::uint64_t times = 1) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// Merged per-bucket counts (bounds().size() entries, non-cumulative).
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

  // Cell layout per lane: [0..B-1] bucket counts, [B] overflow, [B+1] sum;
  // the stride is padded to a cache-line multiple to keep lanes from
  // false-sharing.
  [[nodiscard]] std::size_t cell(std::size_t lane,
                                 std::size_t slot) const noexcept {
    return lane * stride_ + slot;
  }

  std::string name_;
  std::string help_;
  Scope scope_;
  std::vector<std::uint64_t> bounds_;  ///< ascending inclusive upper bounds
  std::size_t stride_;
  std::vector<std::atomic<std::uint64_t>> cells_;
};

/// One metric, merged, as it appears in a snapshot.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  std::string help;
  Scope scope = Scope::kSim;
  Kind kind = Kind::kCounter;

  std::uint64_t counter = 0;
  std::vector<std::uint64_t> lanes;  ///< per-lane counts (lane counters only)
  double gauge = 0.0;

  std::vector<std::uint64_t> hist_bounds;
  std::vector<std::uint64_t> hist_counts;
  std::uint64_t hist_overflow = 0;
  std::uint64_t hist_sum = 0;
};

/// A point-in-time merged view of a registry, sorted by metric name.
struct Snapshot {
  std::vector<MetricValue> metrics;

  /// FNV-1a over every metric of `scope` (name, kind and merged value
  /// bytes; per-lane breakdowns excluded). The kSim digest is the value the
  /// determinism tests pin across CLEAKS_THREADS=1/2/4/8.
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
  /// Counter whose per-lane breakdown is exported (lane utilization);
  /// always Scope::kRuntime — the breakdown depends on chunk claiming.
  Counter& lane_counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "",
               Scope scope = Scope::kSim);
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds,
                       std::string_view help = "",
                       Scope scope = Scope::kSim);

  /// Merged view. Safe to call while other threads are incrementing
  /// (relaxed atomics); deterministic when the system is quiescent.
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
