// Server: one physical machine in the data center — a Host plus its pseudo
// filesystems, container runtime (with the provider's masking policy) and
// optional benign tenant load.
//
// Sparse stepping: step() defers a provably idle step to the analytic
// idle-coast integrator in O(1) instead of running the per-tick physics
// loop, on every server, in a facility or standalone. A Datacenter also
// *parks* a server whose step coasted: it stops visiting it, and the
// server owes the facility time since it parked. The server owns that
// debt, so one rule covers every caller, whatever reference it holds:
// every non-const member settles first. Settling a parked server defers
// the owed time in one O(1) call (coast split-invariance makes that
// bitwise-equal to per-step defers), unparks it and puts it on its
// facility's wake list, so the next facility step visits it again; then
// the deferred time is materialised. A reader can never see a coasting
// server lag the equivalent per-tick run, and a mutation never acts on
// the past.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
  /// Non-const access settles first: callers mutate or render through
  /// these, and a mutation on unmaterialised state would act on the past.
  [[nodiscard]] kernel::Host& host() {
    settle_();
    return *host_;
  }
  /// Const access does not settle: a parked server reads as it was when
  /// it parked.
  [[nodiscard]] const kernel::Host& host() const noexcept { return *host_; }
  [[nodiscard]] fs::PseudoFs& fs() {
    settle_();
    return *fs_;
  }
  [[nodiscard]] container::ContainerRuntime& runtime() {
    settle_();
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
  [[nodiscard]] bool coast_active() const noexcept {
    return host_->coast_active();
  }

  /// Host package power during the last tick (W). Constant during a coast
  /// episode (pinned at entry), so this needs no sync.
  [[nodiscard]] double power_w() const noexcept {
    return host_->last_tick_power_w();
  }

 private:
  friend class Datacenter;

  /// Catch a parked server up and wake it, then materialise deferred time.
  void settle_();
  /// The parked half of settle_(): defer the owed time, unpark, and join
  /// the facility's wake list.
  void unpark_();

  std::string name_;
  std::unique_ptr<kernel::Host> host_;
  std::unique_ptr<fs::PseudoFs> fs_;
  std::unique_ptr<container::ContainerRuntime> runtime_;
  std::unique_ptr<workload::DiurnalLoadGenerator> benign_load_;

  // Parking, written only by the owning Datacenter (park) and by
  // unpark_(). The Datacenter owns its servers and cannot be moved, so
  // its clock and wake list outlive these pointers.
  bool parked_ = false;
  SimTime parked_at_ = 0;  ///< facility time the server parked at
  std::uint32_t index_ = 0;  ///< position in the facility
  const SimTime* facility_now_ = nullptr;
  std::vector<std::uint32_t>* wake_list_ = nullptr;
};

}  // namespace cleaks::cloud
