// Server: one physical machine in the data center — a Host plus its pseudo
// filesystems, container runtime (with the provider's masking policy) and
// optional benign tenant load.
//
// Sparse stepping: step() defers a provably idle step to the analytic
// idle-coast integrator in O(1) instead of running the per-tick physics
// loop, on every server, in a facility or standalone. In parked mode the
// Datacenter stops visiting a coasting server altogether: the owed
// interval is tracked lazily (parked_at_ timestamp) and deferred in one
// O(1) call at the first touch — capper change or external accessor (see
// cloud/datacenter.h). Either way the deferred time is materialised only
// on demand: every non-const accessor that can observe or mutate host
// state syncs it first, so a reader can never see a coasting server lag
// the equivalent per-tick run.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cloud/profiles.h"
#include "container/container.h"
#include "fs/pseudo_fs.h"
#include "kernel/host.h"
#include "workload/diurnal.h"

namespace cleaks::cloud {

class Server {
 public:
  /// `prior_uptime` pre-seeds the host's accumulators as if it had been
  /// running that long before the simulation starts (real cloud servers
  /// rarely reboot — §IV-C exploits exactly this via /proc/uptime).
  Server(std::string name, const CloudServiceProfile& profile,
         std::uint64_t seed, SimDuration prior_uptime = 0);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Non-const access syncs pending coast time first: callers mutate or
  /// render through these, and a mutation on unmaterialised state would
  /// act on the past.
  [[nodiscard]] kernel::Host& host() noexcept {
    host_->coast_sync();
    return *host_;
  }
  [[nodiscard]] const kernel::Host& host() const noexcept { return *host_; }
  [[nodiscard]] fs::PseudoFs& fs() noexcept {
    host_->coast_sync();
    return *fs_;
  }
  [[nodiscard]] container::ContainerRuntime& runtime() noexcept {
    host_->coast_sync();
    return *runtime_;
  }

  /// Attach a diurnal benign-load generator.
  void enable_benign_load(std::uint64_t seed,
                          workload::DiurnalParams params = {});

  /// Advance this server by `dt`: when provably idle, defer `dt` to the
  /// analytic idle coast (O(1), materialised at the next sync); otherwise
  /// sync, re-target benign load and run the full per-tick physics.
  /// Returns true when the step coasted (the signal behind
  /// engine_active_server_steps_total).
  bool step(SimDuration dt);

  /// Whether step() would coast right now: no benign load, no containers,
  /// host-level eligibility. The same predicate at the same step boundary
  /// whether the server is visited every step (CLEAKS_SPARSE=0) or parked
  /// — which is the whole equality argument.
  [[nodiscard]] bool idle_eligible() const noexcept;

  /// Sparse fast path: account `dt` of idle time without stepping
  /// (kernel/host.h defer_idle). Only valid while coast_active().
  void defer_idle(SimDuration dt) { host_->defer_idle(dt); }
  /// Materialise pending deferred time (no-op when none).
  void coast_sync() { host_->coast_sync(); }
  [[nodiscard]] bool coast_active() const noexcept {
    return host_->coast_active();
  }

  /// Host package power during the last tick (W). Constant during a coast
  /// episode (pinned at entry), so this needs no sync.
  [[nodiscard]] double power_w() const noexcept {
    return host_->last_tick_power_w();
  }

 private:
  std::string name_;
  std::unique_ptr<kernel::Host> host_;
  std::unique_ptr<fs::PseudoFs> fs_;
  std::unique_ptr<container::ContainerRuntime> runtime_;
  std::unique_ptr<workload::DiurnalLoadGenerator> benign_load_;
};

}  // namespace cleaks::cloud
