#include "hw/cpuidle.h"

#include <stdexcept>

namespace cleaks::hw {

CpuIdleAccounting::CpuIdleAccounting(int num_cores,
                                     std::vector<CpuIdleStateSpec> states)
    : num_cores_(num_cores), states_(std::move(states)) {
  if (num_cores_ < 0) throw std::invalid_argument("negative core count");
  counters_.resize(static_cast<std::size_t>(num_cores_) * states_.size());
}

void CpuIdleAccounting::record_idle(int core, std::uint64_t idle_us) {
  if (idle_us == 0 || states_.empty()) return;
  int chosen = 0;
  for (int s = static_cast<int>(states_.size()) - 1; s >= 0; --s) {
    if (states_[static_cast<std::size_t>(s)].min_residency_us <= idle_us) {
      chosen = s;
      break;
    }
  }
  CpuIdleCounter& c = counters_[index(core, chosen)];
  c.usage += 1;
  c.time_us += idle_us;
}

void CpuIdleAccounting::seed(int core, int state, std::uint64_t usage,
                             std::uint64_t time_us) {
  CpuIdleCounter& c = counters_[index(core, state)];
  c.usage = usage;
  c.time_us = time_us;
}

std::uint64_t CpuIdleAccounting::usage(int core, int state) const {
  return counters_[index(core, state)].usage;
}

std::uint64_t CpuIdleAccounting::time_us(int core, int state) const {
  return counters_[index(core, state)].time_us;
}

std::size_t CpuIdleAccounting::index(int core, int state) const {
  if (core < 0 || core >= num_cores_ || state < 0 ||
      static_cast<std::size_t>(state) >= states_.size()) {
    throw std::out_of_range("CpuIdleAccounting index");
  }
  return static_cast<std::size_t>(core) * states_.size() +
         static_cast<std::size_t>(state);
}

}  // namespace cleaks::hw
