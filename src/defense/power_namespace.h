// The power-based namespace (§V-B): per-container power accounting behind
// the unchanged RAPL sysfs interface.
//
// Workflow per Fig 5 — on every read of energy_uj by a containerized task:
//   1. data collection  — read the container's perf_event-cgroup counters
//      (instructions, cache misses, branch misses, cycles; events created
//      at container start with owner TASK_TOMBSTONE);
//   2. power modeling   — convert the counter deltas to modeled energy
//      with the trained regression model (Formula 2);
//   3. on-the-fly calibration — scale by the host's modeled-vs-actual
//      ratio: E_container = M_container / M_host · E_RAPL (Formula 3).
// The container accumulates its own virtual µJ counter; the host context
// keeps reading hardware truth. Design goals (§V-B): accuracy,
// transparency (same interface), efficiency.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "container/container.h"
#include "defense/power_model.h"
#include "fs/view.h"

namespace cleaks::defense {

class PowerNamespace final : public fs::RaplViewProvider {
 public:
  /// `model` must already be trained. The namespace serves one runtime
  /// (one host).
  PowerNamespace(container::ContainerRuntime& runtime, PowerModel model);
  ~PowerNamespace() override;

  PowerNamespace(const PowerNamespace&) = delete;
  PowerNamespace& operator=(const PowerNamespace&) = delete;

  /// Install: per-container perf events (existing and future containers),
  /// host-wide root events, and the RAPL view hook.
  void enable();
  /// Restore the stock (leaking) behaviour.
  void disable();
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // fs::RaplViewProvider:
  [[nodiscard]] std::uint64_t energy_uj(
      const kernel::Host& host, const kernel::Task* viewer, int package,
      hw::RaplDomainKind domain) const override;

  [[nodiscard]] const PowerModel& model() const noexcept { return model_; }

 private:
  struct ContainerState {
    kernel::PerfCounters last_perf;
    // Virtual accumulated counters (µJ), wrapping like the real ones.
    double core_uj = 0.0;
    double dram_uj = 0.0;
    double package_uj = 0.0;
  };

  /// Bring all virtual counters up to host.now(): apportion the RAPL
  /// energy accrued since the last refresh across containers per Formula 3.
  /// The caller holds mu_.
  void refresh(const kernel::Host& host) const;

  static PerfDelta to_delta(const kernel::PerfCounters& before,
                            const kernel::PerfCounters& after,
                            double seconds);

  container::ContainerRuntime* runtime_;
  PowerModel model_;
  bool enabled_ = false;
  bool root_events_created_ = false;

  // Read-path state is logically cache, hence mutable (the RaplViewProvider
  // read interface is const). Scan lanes read energy_uj concurrently, so
  // mu_ guards every refresh and every read of the state below; the first
  // reader at a new sim time refreshes, and the rest find it current.
  mutable std::mutex mu_;
  mutable std::map<std::string, ContainerState> states_;
  mutable kernel::PerfCounters last_root_perf_;
  mutable double last_rapl_core_j_ = 0.0;
  mutable double last_rapl_dram_j_ = 0.0;
  mutable double last_rapl_package_j_ = 0.0;
  mutable SimTime last_refresh_ = 0;
  mutable bool primed_ = false;
};

/// Stage-1 defense helper: swap in the paper's deny-list masking policy.
void apply_stage1_masking(container::ContainerRuntime& runtime);

}  // namespace cleaks::defense
