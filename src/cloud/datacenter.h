// Datacenter: racks of servers behind shared branch circuit breakers, with
// power oversubscription and (optionally) a minute-granularity rack power
// capper — the §II-C environment the synergistic power attack targets.
//
// Event-driven stepping: every server runs coast-enabled (kernel/host.h)
// and the facility keeps one scheduler state:
//
//   * the *active list* — servers that take a real step every interval;
//   * *parked* servers — provably idle, sitting on a bucketed TimerWheel
//     keyed by their next-interesting-time. A parked server is not
//     visited at all: the clock it owes is deferred in one O(1) call when
//     it wakes (coast split-invariance makes that bitwise-equal to
//     per-step defers), and its telemetry contributions (power histogram,
//     coasted-seconds, rack/facility power) are carried by edge-maintained
//     aggregates updated only on park/wake transitions.
//
// A step therefore costs O(stepped servers + racks), not O(N). Wakeups:
// a wheel pop (on/off phase edge), or an external mutation reaching the
// server through Datacenter::server(i) — the accessor catches up owed
// idle time and marks the server for a wake-phase recheck, which unparks
// it when its coast episode ended (and re-arms its wheel entry when not).
// The former dense mode (CLEAKS_SPARSE=0) is now simply the never-park
// schedule of this same path: every server stays on the active list, so
// it retains the historical visit-every-server behavior for reference
// runs without a second code branch (tests/sparse_test.cpp pins the
// recorded dense-era goldens and the mode equality).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/breaker.h"
#include "cloud/profiles.h"
#include "cloud/server.h"
#include "util/event_core.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace cleaks::cloud {

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
};

class Datacenter {
 public:
  explicit Datacenter(DatacenterConfig config);

  /// Advance the whole facility by `dt`: wake due sleepers, step the
  /// active list (concurrently, see DatacenterConfig::num_threads), then
  /// let breakers and cappers observe the resulting rack power on the
  /// calling thread, and finally park every server that is provably idle.
  void step(SimDuration dt);

  /// How many whole steps of `dt`, starting now, are *globally
  /// uninteresting*: every server parked, no pending rechecks, no wheel
  /// pop and no capping window inside them. 0 whenever any server is
  /// active. Bounded by `max_steps`. The engine uses this to take one
  /// variable-length stride across idle stretches (step_coalesced).
  [[nodiscard]] std::uint64_t coalescible_steps(
      SimDuration dt, std::uint64_t max_steps) const;

  /// Advance `k` steps of `dt` at once. Precondition: k <=
  /// coalescible_steps(dt, k) — asserted in debug builds, and falls back
  /// to plain per-step execution otherwise. Per-step float state
  /// (breaker thermal integration, rack energy windows) is replayed
  /// serially per virtual step so the result is bitwise-identical to k
  /// plain step() calls; integer telemetry lands in bulk.
  void step_coalesced(SimDuration dt, std::uint64_t k);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] int num_servers() const noexcept {
    return static_cast<int>(servers_.size());
  }
  /// Non-const access catches the server up (a parked server is owed the
  /// idle time since it parked; deferring + syncing materialises it) and
  /// marks it for a wake-phase recheck — the caller may be about to
  /// mutate state that ends its coast episode, and a parked server is
  /// never re-examined unless something says so.
  [[nodiscard]] Server& server(int index) {
    touch_(static_cast<std::size_t>(index));
    return *servers_.at(static_cast<std::size_t>(index));
  }
  /// Read-only access that does NOT touch or wake: safe for scans that
  /// must not end coast episodes or schedule rechecks (the provider's
  /// billing rollup reads per-host usage markers through this every
  /// step). A parked server's marker cannot be stale — markers only move
  /// when a scheduler tick runs, which parked servers by definition
  /// don't.
  [[nodiscard]] const Server& peek(int index) const {
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
  /// Servers currently parked on the wheel. O(1).
  [[nodiscard]] int sleeping_servers() const noexcept {
    return static_cast<int>(parked_count_);
  }

 private:
  void apply_rack_capping(int rack);
  /// Catch up a parked server's owed idle time and flag it for the next
  /// wake-phase recheck; syncs pending coast time either way.
  void touch_(std::size_t index);
  /// Unpark: defer owed time, retire the parked aggregates, rejoin the
  /// active list.
  void wake_(std::uint32_t index);
  /// Park an active server (at position `pos` in the active list): record
  /// its pinned telemetry into the parked aggregates, swap-remove it from
  /// the active list, arm its wheel entry.
  void park_(std::uint32_t index, std::size_t pos);
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

  // Scheduler state. Per-server flags are written only by the lane that
  // owns the server during the parallel phase and read serially after the
  // join; the active list and every parked aggregate mutate only in the
  // serial wake/sleep phases, in deterministic order.
  TimerWheel wheel_;
  std::vector<std::uint32_t> active_ids_;  ///< servers stepped each interval
  std::vector<std::uint8_t> sleeping_;     ///< parked on the wheel
  std::vector<std::uint8_t> coasted_;      ///< last step coasted (stepped set)
  std::vector<std::uint8_t> recheck_pending_;  ///< touched while parked
  std::vector<std::uint32_t> recheck_ids_;     ///< wake-phase recheck queue
  std::vector<SimTime> parked_at_;  ///< park / last catch-up instant
  std::uint64_t parked_count_ = 0;
  // Parked telemetry aggregates: everything a parked server would have
  // contributed per step, pre-binned. Integer throughout, added and
  // removed with the identical pinned values, so one bulk apply per step
  // is bitwise-equal to visiting every parked server.
  std::vector<std::uint64_t> parked_power_slots_;  ///< histogram slot counts
  std::vector<std::uint8_t> parked_slot_;  ///< per-server slot at park time
  std::vector<std::uint64_t> parked_mw_;   ///< per-server mW at park time
  std::uint64_t parked_mw_sum_ = 0;
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
