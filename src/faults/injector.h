// FaultInjector: evaluates a FaultPlan against (path, sim time) queries.
//
// Stateless by design: every query is a pure function of the plan and the
// query coordinates, so the injector can be consulted concurrently from
// any number of scan workers without locks and without perturbing any
// simulation RNG stream. Draws come from Rng::fork chains keyed on
// (plan seed, rule index, fnv1a64(path), time window) — the same window
// always resolves to the same verdict no matter who asks, in what order,
// or on which thread. A PseudoFs consults it for container-context reads
// once PseudoFs::set_fault_injector installs it.
#pragma once

#include <string_view>

#include "faults/plan.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace cleaks::faults {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Fault verdict for reading `path` at sim time `now`: kOk (no fault) or
  /// kUnavailable (inside a drawn transient window). Counts injections.
  [[nodiscard]] StatusCode read_fault(std::string_view path,
                                      SimTime now) const;

 private:
  FaultPlan plan_;
  Rng base_;  ///< never advanced: only fork()ed per query
};

}  // namespace cleaks::faults
