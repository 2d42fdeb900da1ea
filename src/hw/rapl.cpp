#include "hw/rapl.h"

#include <cmath>

namespace cleaks::hw {

std::string to_string(RaplDomainKind kind) {
  switch (kind) {
    case RaplDomainKind::kPackage:
      return "package";
    case RaplDomainKind::kCore:
      return "core";
    case RaplDomainKind::kDram:
      return "dram";
  }
  return "unknown";
}

void RaplDomain::add_energy_j(double joules) noexcept {
  rapl_charge(state_, joules, range_uj_);
}

void RaplDomain::force_wrap() noexcept {
  state_.counter_uj = range_uj_ - 1;
}

std::uint64_t RaplDomain::energy_uj() const noexcept {
  return state_.counter_uj;
}

RaplPackage::RaplPackage(int package_id, bool has_dram)
    : package_id_(package_id), has_dram_(has_dram) {}

double rapl_delta_j(std::uint64_t before_uj, std::uint64_t after_uj,
                    std::uint64_t range_uj) {
  const std::uint64_t delta =
      after_uj >= before_uj ? after_uj - before_uj
                            : after_uj + range_uj - before_uj;
  return static_cast<double>(delta) * 1e-6;
}

Result<double> rapl_delta_j_checked(std::uint64_t before_uj,
                                    std::uint64_t after_uj, double truth_j,
                                    std::uint64_t range_uj) {
  if (range_uj == 0) {
    return {StatusCode::kInvalidArgument, "rapl range is zero"};
  }
  if (truth_j < 0.0) {
    return {StatusCode::kOutOfRange, "reference energy is negative"};
  }
  // wrapped = truth - k * range for the (unknown) wrap count k >= 0; the
  // counters and the reference measure the same physical energy, so k is
  // just the rounded quotient of their disagreement.
  const double wrapped_j = rapl_delta_j(before_uj, after_uj, range_uj);
  const double range_j = static_cast<double>(range_uj) * 1e-6;
  const double wraps = std::round((truth_j - wrapped_j) / range_j);
  if (wraps < 0.0) {
    return {StatusCode::kOutOfRange,
            "counter delta exceeds the unwrapped reference"};
  }
  const double reconstructed_j = wrapped_j + wraps * range_j;
  // The reconstruction must land *on* the reference (sub-µJ agreement is
  // what the counters guarantee); a percent-of-range residual means the
  // counters and the reference describe different gaps — a corrupted
  // sample, not a wrap miscount.
  if (std::fabs(reconstructed_j - truth_j) > 0.01 * range_j) {
    return {StatusCode::kOutOfRange,
            "counter delta irreconcilable with the unwrapped reference"};
  }
  return reconstructed_j;
}

}  // namespace cleaks::hw
