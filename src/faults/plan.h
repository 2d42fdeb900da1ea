// FaultPlan: the declarative description of interface flakiness.
//
// Real procfs and sysfs reads return transient EBUSY under load. A
// FaultPlan injects exactly that outcome into a run: bounded kUnavailable
// windows on the container-context reads of the paths it covers. The
// scanner's bounded retry (leakage/detector.h) and RaplMonitor's held
// estimate (attack/monitor.h) are the consumers that must survive it;
// bench/robustness_fault_sweep measures both regimes.
//
// Determinism contract: every fault is a *pure function* of
// (plan seed, rule index, path, sim-time window). There is no mutable RNG
// state anywhere in the subsystem, so concurrent readers at any thread
// count observe the identical fault schedule, like every other simulation
// output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace cleaks::faults {

/// One transient rule. Sim time divides into windows of `period`; each
/// window independently faults a covered path with probability `rate`
/// and, when it does, the fault spans the first `duration` of the window.
/// With duration < period every transient resolves before the window
/// ends — the recoverable regime the scanner's bounded retry is sized
/// against.
struct FaultRule {
  /// Which paths the rule covers (AppArmor-style glob, like MaskRule).
  std::string path_glob = "**";
  double rate = 1.0;                          ///< per-window probability
  SimDuration period = 2 * kSecond;           ///< window cadence
  SimDuration duration = 200 * kMillisecond;  ///< fault span per window
};

/// The complete fault schedule. Empty plan = no faults and (by
/// construction) zero overhead on the read path.
struct FaultPlan {
  /// Keys the dedicated fault RNG stream, independent of every simulation
  /// stream — changing the fault seed never perturbs the physics.
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
};

}  // namespace cleaks::faults
