// Closed-form idle-interval integrators ("coasting").
//
// A coast-eligible host parks its physics at an *anchor* — a snapshot of
// exactly the accumulators a coast advances, plus the constant rates in
// force while nothing runs — and any later state is a pure function
// g(anchor, elapsed). Everything else stays put: any change to it bumps the
// host generation and ends the episode (kernel/host.h CoastEpisode). Because
// materialising at elapsed E always recomputes from the anchor (never from
// the previous materialisation), evaluating g at E1 < E2 < ... < En leaves
// bitwise-identical state to evaluating g once at En: split-invariance by
// construction. That is the property the facility leans on — both of its
// schedules defer idle time, a parked server owes a whole stretch in one
// defer, and a woken server that is still idle adds one more coasting
// visit; time is materialised only when a non-const cloud::Server member
// settles the server, and the result equals materialising every tick
// (the per-tick reference in tests/sparse_test.cpp).
//
// These kernels are deliberately RNG-free: the legacy per-tick path draws
// measurement noise, loadavg samples and VFS jitter from the host RNG, so
// no closed form could reproduce an arbitrary tick sequence. Coasting is
// its own regime — entered and left at identical step boundaries in the
// never-park and parked schedules — in which an idle machine is exactly
// as boring as its rate constants say.
#pragma once

#include <cmath>
#include <cstdint>

#include "hw/rapl.h"
#include "hw/thermal.h"

namespace cleaks::hw {

/// Advance one RAPL domain from `anchor` by `elapsed_sec` seconds at a
/// constant `watts`, writing the result over `out` (the live domain
/// state). Mirrors rapl_charge()'s residual/wrap arithmetic so a coast
/// landing on the wrap edge counts wraps exactly like the equivalent
/// charge would.
inline void rapl_coast(RaplDomainState& out, const RaplDomainState& anchor,
                       double watts, double elapsed_sec,
                       std::uint64_t range_uj) noexcept {
  const double joules = watts * elapsed_sec;
  const double raw_uj = anchor.residual_uj + joules * 1e6;
  const auto whole = static_cast<std::uint64_t>(raw_uj);
  out.total_j = anchor.total_j + joules;
  out.residual_uj = raw_uj - static_cast<double>(whole);
  out.wrap_count = anchor.wrap_count + (anchor.counter_uj + whole) / range_uj;
  out.counter_uj = (anchor.counter_uj + whole) % range_uj;
}

/// Exponential relaxation toward ambient with zero core power: the
/// closed-form solution of the thermal RC over an arbitrary interval.
/// Returns the retention factor exp(-t/tau); the caller applies
///   T(E) = ambient + (T_anchor - ambient) * retention
/// per core (one exp shared across all cores of a host).
inline double thermal_coast_retention(double elapsed_sec) noexcept {
  return std::exp(-elapsed_sec / kThermalTauSeconds);
}

/// Deep-idle residency accrued over a coast: the deepest C-state soaks the
/// whole interval, entered at the same ~40 Hz the prior-uptime seeding
/// models. Exact integer microseconds; usage events floor like every other
/// coast rate.
struct CpuIdleCoastDelta {
  std::uint64_t usage = 0;
  std::uint64_t time_us = 0;
};

inline CpuIdleCoastDelta cpuidle_coast(std::uint64_t elapsed_ns,
                                       double elapsed_sec) noexcept {
  CpuIdleCoastDelta delta;
  delta.time_us = elapsed_ns / 1000ULL;
  delta.usage = static_cast<std::uint64_t>(elapsed_sec * 40.0);
  return delta;
}

}  // namespace cleaks::hw
