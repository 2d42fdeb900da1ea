// cpuidle accounting: per-core, per-state usage counts and residency time,
// backing /sys/devices/system/cpu/cpu#/cpuidle/state#/{usage,time}.
// Table II ranks both as U+V+M channels (the counters are host-lifetime
// accumulators, hence unique per machine).
#pragma once

#include <cstdint>
#include <vector>

#include "hw/spec.h"

namespace cleaks::hw {

/// One (core, state) counter pair; a plain value so the idle-coast anchor
/// can snapshot the deepest state's pair per core.
struct CpuIdleCounter {
  std::uint64_t usage = 0;
  std::uint64_t time_us = 0;
};

class CpuIdleAccounting {
 public:
  CpuIdleAccounting(int num_cores, std::vector<CpuIdleStateSpec> states);

  /// Record that `core` was idle for `idle_us` microseconds during a tick.
  /// The residency is attributed to the deepest state whose min residency
  /// fits, the way menu-governor behaviour looks from sysfs.
  void record_idle(int core, std::uint64_t idle_us);

  [[nodiscard]] std::uint64_t usage(int core, int state) const;
  [[nodiscard]] std::uint64_t time_us(int core, int state) const;
  [[nodiscard]] int num_states() const noexcept {
    return static_cast<int>(states_.size());
  }
  [[nodiscard]] int num_cores() const noexcept { return num_cores_; }
  [[nodiscard]] const CpuIdleStateSpec& state_spec(int state) const {
    return states_.at(static_cast<std::size_t>(state));
  }
  [[nodiscard]] const std::vector<CpuIdleStateSpec>& states() const noexcept {
    return states_;
  }

  /// Pre-seed a counter pair (used to model a host that has already been
  /// up for months when the simulation starts).
  void seed(int core, int state, std::uint64_t usage, std::uint64_t time_us);

 private:
  [[nodiscard]] std::size_t index(int core, int state) const;

  int num_cores_;
  std::vector<CpuIdleStateSpec> states_;
  std::vector<CpuIdleCounter> counters_;  ///< core-major [core][state]
};

}  // namespace cleaks::hw
