// Cycle counter reads (the serenity core/time.h tsc idiom).
//
// The provider's control-cycle counters and bench/scaling_fleet time
// control-plane paths in cycles: clock_gettime would add its own overhead
// to sub-microsecond spans, while the TSC read is ~20 cycles and monotonic
// within a core. ScopedCycles times one scope into a caller's
// accumulator.
//
// read_cycle_counter() compiles to rdtsc on x86; elsewhere (and that
// includes any container without a stable invariant TSC story) it falls
// back to steady_clock nanoseconds, so "cycles" then means "nanoseconds" —
// calibrate_cycles_per_second() reports the actual unit so bench envelopes
// stay honest about which source they measured with.
#pragma once

#include <chrono>
#include <cstdint>

namespace cleaks {

#if defined(__x86_64__) || defined(__i386__)
inline constexpr bool kCycleCounterIsTsc = true;
inline std::uint64_t read_cycle_counter() noexcept {
#if defined(__clang__)
  return __builtin_readcyclecounter();
#else
  return __builtin_ia32_rdtsc();
#endif
}
#else
inline constexpr bool kCycleCounterIsTsc = false;
inline std::uint64_t read_cycle_counter() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

/// Name of the cycle source, for bench envelopes.
inline const char* cycle_counter_source() noexcept {
  return kCycleCounterIsTsc ? "rdtsc" : "steady_clock_ns";
}

/// RAII wrapper: times one scope into an accumulator.
class ScopedCycles {
 public:
  explicit ScopedCycles(std::uint64_t& accumulator) noexcept
      : accumulator_(accumulator), start_(read_cycle_counter()) {}
  ~ScopedCycles() { accumulator_ += read_cycle_counter() - start_; }
  ScopedCycles(const ScopedCycles&) = delete;
  ScopedCycles& operator=(const ScopedCycles&) = delete;

 private:
  std::uint64_t& accumulator_;
  std::uint64_t start_;
};

/// Measure the cycle counter's rate against steady_clock (~5 ms spin).
/// On the steady_clock fallback this returns ~1e9 by construction.
inline double calibrate_cycles_per_second() {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const std::uint64_t c0 = read_cycle_counter();
  // Busy-wait; a sleep would park the TSC reference on some cpufreq setups.
  while (clock::now() - t0 < std::chrono::milliseconds(5)) {
  }
  const std::uint64_t c1 = read_cycle_counter();
  const double sec = std::chrono::duration<double>(clock::now() - t0).count();
  return sec > 0.0 ? static_cast<double>(c1 - c0) / sec : 0.0;
}

}  // namespace cleaks
