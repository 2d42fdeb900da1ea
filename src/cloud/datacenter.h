// Datacenter: racks of servers behind shared branch circuit breakers, with
// power oversubscription and (optionally) a minute-granularity rack power
// capper — the §II-C environment the synergistic power attack targets.
//
// Event-driven stepping: every server coasts when idle (kernel/host.h),
// and the facility steps only its *active list*. A server whose step
// coasted is *parked*: it leaves the active list and is not visited
// again. Its pinned power stays in the rack sums, and it adds dt per step
// to the coasted-seconds count. The per-server power histogram observes
// only server-steps that ran physics, so no coasting server, parked or
// not, adds to it.
//
// A step therefore costs O(stepped servers + racks), not O(N). The parked
// server owns its debt (cloud/server.h): every non-const Server member
// settles it, which catches it up and puts it on this facility's wake
// list, and the next step appends the wake list to the active list. A
// woken server that is still idle coasts through one visit and parks
// again, which split-invariance makes invisible. The facility does only
// three things: append woken servers at step start, park every server
// whose step coasted, and let the capper reach a just-parked server
// through Server::host(), which wakes it.
// The former dense mode (CLEAKS_SPARSE=0) is now simply the never-park
// schedule of this same path: every server stays on the active list, so
// it retains the historical visit-every-server behavior for reference
// runs without a second code branch (tests/sparse_test.cpp pins the
// recorded dense-era goldens and the mode equality).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/breaker.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace cleaks::cloud {

/// One testbed host with a known seed and uptime, rather than a
/// rack-installed server. The defense experiments (Table 3, the ablation
/// stages, the namespace demo) run on a 1x1 facility with
/// benign_load = false and this set. Server 0 takes these values in place
/// of its rack-derived draws; the draws still run, so every other server
/// is unchanged. A pinned server coasts like any other server whenever it
/// holds no container and no load.
struct PinnedHost {
  std::uint64_t seed = 1;
  SimDuration prior_uptime = 0;
};

struct DatacenterConfig {
  int num_racks = 1;
  int servers_per_rack = 8;
  CloudServiceProfile profile = cc1();
  BreakerSpec rack_breaker;
  /// Rack power cap (W, 0 disables). Enforcement reacts only once per
  /// `capping_interval` — the minute-level delay of §II-C that leaves the
  /// window for short spikes.
  double rack_power_cap_w = 0.0;
  SimDuration capping_interval = kMinute;
  bool benign_load = true;
  /// With benign_load, attach the diurnal generator to only the first N
  /// servers (-1 = all). Scale benches use this to build mostly-idle
  /// facilities with a controlled active fraction; the default preserves
  /// the historical per-server RNG draw sequence exactly.
  int benign_load_servers = -1;
  std::uint64_t seed = 42;
  /// Lanes used to step servers concurrently (0 = ThreadPool default: the
  /// CLEAKS_THREADS env var, else the affinity-mask CPU count; 1 = serial).
  /// Each server owns its whole state and its own RNG stream, so stepping is
  /// embarrassingly parallel and *bitwise deterministic*: every thread
  /// count produces the identical power trace.
  int num_threads = 0;
  /// Sparse stepping mode: -1 = auto (the CLEAKS_SPARSE env var, strictly
  /// parsed — non-numeric values mean "default", which is on), 0 =
  /// never-park reference schedule (every server steps every interval),
  /// 1 = sparse. One code path either way; both settings are
  /// bitwise-identical and sparse is the fast one.
  int sparse = -1;
  /// Server 0's seed and prior uptime, in place of its rack-derived ones.
  std::optional<PinnedHost> pinned_host;
};

class Datacenter {
 public:
  explicit Datacenter(DatacenterConfig config);
  // Every server points at now_ and woken_, so a facility never moves.
  Datacenter(const Datacenter&) = delete;
  Datacenter& operator=(const Datacenter&) = delete;

  /// Advance the whole facility by `dt`: return woken servers to the
  /// active list, step it (concurrently, see
  /// DatacenterConfig::num_threads), park every server whose step
  /// coasted, then let breakers and cappers observe the resulting rack
  /// power on the calling thread.
  void step(SimDuration dt);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] int num_servers() const noexcept {
    return static_cast<int>(servers_.size());
  }
  /// Throws std::out_of_range for an index outside [0, num_servers()).
  [[nodiscard]] Server& server(int index) {
    return *servers_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] const Server& server(int index) const {
    return *servers_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] int rack_of(int server_index) const noexcept {
    return server_index / config_.servers_per_rack;
  }
  [[nodiscard]] CircuitBreaker& rack_breaker(int rack) {
    return breakers_.at(static_cast<std::size_t>(rack));
  }
  /// Rack / facility power after the last step. O(1): incrementally
  /// maintained per-rack sums (recomputed as fresh index-order folds for
  /// racks whose servers stepped — bit-identical to the historical O(N)
  /// fold); the facility total is the fold of the rack sums in rack
  /// order.
  [[nodiscard]] double rack_power_w(int rack) const {
    return rack_power_cache_.at(static_cast<std::size_t>(rack));
  }
  [[nodiscard]] double total_power_w() const noexcept {
    return total_power_cache_;
  }
  [[nodiscard]] bool any_breaker_tripped() const;
  [[nodiscard]] const DatacenterConfig& config() const noexcept {
    return config_;
  }
  /// Whether this facility parks sleeping servers (resolved from
  /// DatacenterConfig::sparse / CLEAKS_SPARSE via util::env_long).
  [[nodiscard]] bool sparse() const noexcept { return sparse_; }
  /// Servers off the active list: parked, or woken since the last step.
  /// O(1).
  [[nodiscard]] int sleeping_servers() const noexcept {
    return num_servers() - static_cast<int>(active_ids_.size());
  }

 private:
  void apply_rack_capping(int rack);
  void mark_rack_dirty_(int rack) {
    auto& flag = rack_dirty_[static_cast<std::size_t>(rack)];
    if (flag == 0) {
      flag = 1;
      dirty_racks_.push_back(static_cast<std::uint32_t>(rack));
    }
  }

  DatacenterConfig config_;
  SimTime now_ = 0;
  ThreadPool pool_;
  bool sparse_ = true;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<CircuitBreaker> breakers_;
  std::vector<double> rack_energy_since_cap_j_;  ///< for the capper's average
  SimTime last_cap_check_ = 0;

  // Scheduler state. coasted_ is written only by the lane that owns the
  // server during the parallel phase and read serially after the join;
  // the active list mutates only in the serial append and park phases, in
  // deterministic order, and the wake list only through Server settles.
  std::vector<std::uint32_t> active_ids_;  ///< servers stepped each interval
  std::vector<std::uint32_t> woken_;       ///< settled since the last step
  std::vector<std::uint8_t> coasted_;      ///< last step coasted (stepped set)
  std::uint64_t coasted_ns_total_ = 0;
  std::uint64_t coasted_s_flushed_ = 0;  ///< counter high-water mark
  // Incremental power aggregation: per-rack sums recomputed only for
  // racks that had a stepped server, facility total folded from them.
  std::vector<double> rack_power_cache_;
  double total_power_cache_ = 0.0;
  std::vector<std::uint8_t> rack_dirty_;
  std::vector<std::uint32_t> dirty_racks_;
  // Post-step aggregation cache, refreshed whenever a server takes a real
  // step. Power is pinned while a server coasts (at episode entry), so
  // reading the cache is exactly reading the server — without the
  // per-server pointer chase that would otherwise dominate sparse facility
  // steps.
  std::vector<double> power_w_;
};

}  // namespace cleaks::cloud
