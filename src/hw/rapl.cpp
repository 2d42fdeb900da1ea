#include "hw/rapl.h"

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
  if (joules <= 0.0) return;
  state_.total_j += joules;
  state_.residual_uj += joules * 1e6;
  const auto whole = static_cast<std::uint64_t>(state_.residual_uj);
  state_.residual_uj -= static_cast<double>(whole);
  // One charge can span several wraps when a coarse tick delivers more
  // than range_uj at once; count each so wrap_count stays ground truth.
  state_.wrap_count += (state_.counter_uj + whole) / range_uj_;
  state_.counter_uj = (state_.counter_uj + whole) % range_uj_;
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

}  // namespace cleaks::hw
