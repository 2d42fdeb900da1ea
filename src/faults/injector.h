// FaultInjector: evaluates a FaultPlan against (path, sim time) queries.
//
// Stateless by design: every query is a pure function of the plan and the
// query coordinates, so the injector can be consulted concurrently from
// any number of scan workers without locks and without perturbing any
// simulation RNG stream. Draws come from Rng::fork chains keyed on
// (plan seed, rule index, fnv1a64(path), time window) — the same window
// always resolves to the same verdict no matter who asks, in what order,
// or on which thread.
#pragma once

#include <cstdint>
#include <string_view>

#include "faults/plan.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace cleaks::faults {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Fault verdict for reading `path` at sim time `now`: kOk (no fault),
  /// kUnavailable (inside a drawn transient window) or kPermissionDenied
  /// (a permanent flip whose start has passed). Counts injections.
  [[nodiscard]] StatusCode read_fault(std::string_view path,
                                      SimTime now) const;

  /// True when a kRaplWrapForce rule fires at engine step `step_index`
  /// (a monotonic index that survives measurement resets).
  [[nodiscard]] bool rapl_wrap_at_step(std::uint64_t step_index,
                                       SimTime now) const;

  /// Fraction of the perf sampling window at `now` that multiplexing kept
  /// scheduled; 1.0 = clean sample. The defense trainer treats anything
  /// below 1.0 as a poisoned calibration sample and skips it.
  [[nodiscard]] double perf_retention(SimTime now) const;

 private:
  /// The pure draw: uniform [0,1) keyed on (rule, subject, window).
  [[nodiscard]] double draw01(std::uint64_t rule_index, std::uint64_t subject,
                              std::uint64_t window) const;
  [[nodiscard]] bool rule_active(const FaultRule& rule, SimTime now) const;

  FaultPlan plan_;
  Rng base_;  ///< never advanced: only fork()ed per query
};

}  // namespace cleaks::faults
