// Intel RAPL (Running Average Power Limit) counter model.
//
// Exposes the same observable the real powercap sysfs interface exposes:
// per-domain accumulated energy in microjoules, wrapping at
// max_energy_range_uj. The leakage channel of §III-B case study II is the
// read path of /sys/class/powercap/intel-rapl:*/energy_uj; the synergistic
// attack (§IV) and the defense's calibration (Formula 3) both consume it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cleaks::hw {

enum class RaplDomainKind { kPackage, kCore, kDram };

std::string to_string(RaplDomainKind kind);

/// The mutable accumulator state of one RAPL domain, a plain value so the
/// idle-coast integrator (hw/idle_coast.h) can snapshot it at an anchor
/// and later overwrite it with a closed-form advance.
struct RaplDomainState {
  double total_j = 0.0;
  double residual_uj = 0.0;  ///< sub-microjoule remainder
  std::uint64_t counter_uj = 0;
  std::uint64_t wrap_count = 0;
};

/// One RAPL domain: a wrapping microjoule accumulator.
class RaplDomain {
 public:
  /// Typical max_energy_range_uj for client parts (~262 kJ).
  static constexpr std::uint64_t kDefaultRangeUj = 262143328850ULL;

  RaplDomain(RaplDomainKind kind, std::uint64_t range_uj = kDefaultRangeUj)
      : kind_(kind), range_uj_(range_uj) {}

  [[nodiscard]] RaplDomainKind kind() const noexcept { return kind_; }

  /// Charge `joules` of energy into the accumulator; non-positive
  /// amounts are ignored. This is the only way a tick charges RAPL
  /// (hw/idle_coast.h's rapl_coast mirrors its residual/wrap arithmetic).
  void add_energy_j(double joules) noexcept;

  /// Current wrapped counter value in microjoules, as energy_uj reports it.
  [[nodiscard]] std::uint64_t energy_uj() const noexcept;

  /// Unwrapped lifetime energy in joules (simulator-internal ground truth;
  /// not exposed through any pseudo file).
  [[nodiscard]] double lifetime_energy_j() const noexcept {
    return state_.total_j;
  }

  [[nodiscard]] std::uint64_t max_energy_range_uj() const noexcept {
    return range_uj_;
  }

  /// Times the counter has wrapped past max_energy_range_uj (ground truth
  /// a real sampler never sees — the observable is only the wrapped
  /// counter, which is the whole point of the multi-wrap hazard).
  [[nodiscard]] std::uint64_t wrap_count() const noexcept {
    return state_.wrap_count;
  }

  /// Direct accumulator access for the idle-coast integrator, which
  /// snapshots the state at a coast anchor and later overwrites it with a
  /// closed-form advance (hw/idle_coast.h).
  [[nodiscard]] const RaplDomainState& state() const noexcept {
    return state_;
  }
  [[nodiscard]] RaplDomainState& mutable_state() noexcept { return state_; }

 private:
  RaplDomainKind kind_;
  std::uint64_t range_uj_;
  RaplDomainState state_;
};

/// A package with its core (PP0) and DRAM subdomains, mirroring the
/// intel-rapl:#/intel-rapl:#:# sysfs hierarchy.
class RaplPackage {
 public:
  RaplPackage(int package_id, bool has_dram);

  [[nodiscard]] int package_id() const noexcept { return package_id_; }
  [[nodiscard]] bool has_dram() const noexcept { return has_dram_; }

  RaplDomain& package() noexcept { return package_; }
  RaplDomain& core() noexcept { return core_; }
  RaplDomain& dram() noexcept { return dram_; }
  [[nodiscard]] const RaplDomain& package() const noexcept { return package_; }
  [[nodiscard]] const RaplDomain& core() const noexcept { return core_; }
  [[nodiscard]] const RaplDomain& dram() const noexcept { return dram_; }

 private:
  int package_id_;
  bool has_dram_;
  RaplDomain package_{RaplDomainKind::kPackage};
  RaplDomain core_{RaplDomainKind::kCore};
  RaplDomain dram_{RaplDomainKind::kDram};
};

/// Convert a RAPL counter delta (handling one wraparound) to joules.
///
/// Caveat (the §IV sampling-gap hazard): the wrapped counter alone cannot
/// distinguish a gap spanning k wraps from one spanning k+1 — a sampler
/// whose interval exceeds range_uj worth of energy silently under-reports
/// by a multiple of the range. In-container readers have no unwrapped
/// reference to reconcile against (RaplMonitor discards implausible
/// deltas instead).
double rapl_delta_j(std::uint64_t before_uj, std::uint64_t after_uj,
                    std::uint64_t range_uj = RaplDomain::kDefaultRangeUj);

}  // namespace cleaks::hw
