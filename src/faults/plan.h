// FaultPlan: the declarative description of interface flakiness.
//
// The paper's channels live behind a policy-mediated kernel interface:
// reads get denied by stage-1 masking (§V), hardware channels vanish when
// RAPL is absent (§IV), and real procfs returns transient EBUSY under
// load. A FaultPlan — declared in code on ScenarioSpec and written into
// the spec's JSON like the rest of it — injects exactly those outcomes
// into a run: bounded kUnavailable windows, permanent kPermissionDenied
// flips, forced RAPL counter wraps at step boundaries, and perf
// multiplexing dropout for the defense's calibration sweep.
//
// Determinism contract: every fault is a *pure function* of
// (plan seed, rule index, path, sim-time window). There is no mutable RNG
// state anywhere in the subsystem, so concurrent readers at any thread
// count observe the identical fault schedule (the PR-1/2/3 invariant).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.h"
#include "util/sim_time.h"

namespace cleaks::faults {

enum class FaultKind {
  kTransientUnavailable,  ///< reads return EBUSY inside drawn windows
  kPermanentDeny,         ///< reads return EACCES from `start` onward
  kRaplWrapForce,         ///< park RAPL counters at the wrap edge at a step
  kPerfDropout,           ///< perf multiplexing: sample keeps only `scale`
};

std::string to_string(FaultKind kind);

/// One fault rule. Time-driven kinds (transient/dropout) divide sim time
/// into windows of `period`; each window independently faults with
/// probability `rate` and, when it does, the fault spans the first
/// `duration` of the window. With duration < period every transient
/// resolves before the window ends — the recoverable regime the scanner's
/// bounded retry is sized against.
struct FaultRule {
  FaultKind kind = FaultKind::kTransientUnavailable;
  /// Which paths the rule covers (AppArmor-style glob, like MaskRule).
  /// Ignored by kRaplWrapForce / kPerfDropout, which are not path-keyed.
  std::string path_glob = "**";
  double rate = 1.0;                          ///< per-window/step probability
  SimDuration period = 2 * kSecond;           ///< window cadence
  SimDuration duration = 200 * kMillisecond;  ///< fault span per window
  SimTime start = 0;                          ///< rule active from here...
  SimTime end = 0;                            ///< ...until here (0 = open)
  double scale = 0.0;  ///< kPerfDropout: fraction of the window retained
};

/// The complete fault schedule for one scenario. Empty plan = no faults
/// and (by construction) zero overhead on the read path.
struct FaultPlan {
  /// Keys the dedicated fault RNG stream, independent of every simulation
  /// stream — changing the fault seed never perturbs the physics.
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
};

/// Append the plan as an object under `key` to an open JSON object.
void append_plan_json(const FaultPlan& plan, obs::JsonWriter& json,
                      std::string_view key = "faults");

}  // namespace cleaks::faults
