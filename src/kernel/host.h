// Host: one simulated physical server — hardware plus a running kernel.
//
// Host owns the hardware models (RAPL, thermal, cpuidle), the kernel
// subsystems (namespaces, cgroups, scheduler, perf_event), the task table
// and the global KernelState. advance() steps simulated time in ticks,
// during which the scheduler runs tasks, energy/thermal/idle models
// integrate, and every /proc- and /sys-visible counter is maintained.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/cpuidle.h"
#include "hw/energy_model.h"
#include "hw/rapl.h"
#include "hw/spec.h"
#include "hw/thermal.h"
#include "kernel/cgroup.h"
#include "kernel/kernel_state.h"
#include "kernel/namespaces.h"
#include "kernel/perf_event.h"
#include "kernel/scheduler.h"
#include "kernel/task.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace cleaks::kernel {

class Host {
 public:
  /// `boot_time` is the simulated instant the machine was powered on
  /// (uptime counts from here). `seed` drives all stochastic behaviour of
  /// this host, including its boot_id.
  Host(std::string name, hw::HardwareSpec spec, std::uint64_t seed,
       SimTime boot_time = 0);

  // Not copyable (tasks hold back-references via cgroup/namespace shares).
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // --- time ---
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// Tick granularity for advance(); smaller is finer but slower. Defaults
  /// to 100 ms, adequate for second-scale power traces; the defense
  /// evaluation uses finer ticks.
  void set_tick_duration(SimDuration tick) { tick_duration_ = tick; }
  [[nodiscard]] SimDuration tick_duration() const noexcept {
    return tick_duration_;
  }
  /// Advance simulated time by exactly `duration`: whole ticks of
  /// tick_duration() followed by one shorter final tick for any remainder
  /// (a `duration` below one tick runs a single partial tick). Durations
  /// are NOT rounded up — now() always lands on now() + duration, and a
  /// partial tick integrates physics over its true dt. Pinned by the
  /// AdvanceContract tests in tests/kernel_test.cpp.
  void advance(SimDuration duration);

  /// Pre-seed accumulators (uptime, jiffies, interrupts, RAPL counters,
  /// cpuidle residency) as if the host had already been up for
  /// `prior_uptime` at ~20% average utilization before the simulation
  /// begins. Call once, before the first advance().
  void seed_prior_uptime(SimDuration prior_uptime);

  // --- identity / hardware ---
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const hw::HardwareSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const KernelState& state() const noexcept { return kstate_; }
  [[nodiscard]] KernelState& mutable_state() noexcept {
    ++generation_;  // caller may change anything /proc-visible
    return kstate_;
  }
  [[nodiscard]] const hw::ThermalModel& thermal() const noexcept {
    return thermal_;
  }
  [[nodiscard]] const hw::CpuIdleAccounting& cpuidle() const noexcept {
    return cpuidle_;
  }
  [[nodiscard]] const std::vector<hw::RaplPackage>& rapl() const noexcept {
    return rapl_;
  }
  [[nodiscard]] std::vector<hw::RaplPackage>& mutable_rapl() noexcept {
    ++generation_;
    return rapl_;
  }

  // --- kernel subsystems ---
  [[nodiscard]] NamespaceRegistry& namespaces() noexcept { return ns_registry_; }
  [[nodiscard]] const NamespaceSet& init_ns() const noexcept { return init_ns_; }
  /// Mutable access for runtime-side changes to init namespaces (e.g. the
  /// host-side veth peer a container runtime adds to init_net).
  [[nodiscard]] NamespaceSet& mutable_init_ns() noexcept {
    ++generation_;
    return init_ns_;
  }
  [[nodiscard]] CgroupManager& cgroups() noexcept { return cgroups_; }
  [[nodiscard]] const CgroupManager& cgroups() const noexcept {
    return cgroups_;
  }
  [[nodiscard]] PerfEventSubsystem& perf() noexcept { return perf_; }
  [[nodiscard]] const Scheduler& scheduler() const noexcept { return sched_; }

  // --- tasks ---
  struct SpawnOptions {
    std::string comm;
    TaskBehavior behavior;
    std::string container_id;               ///< empty = host task
    std::shared_ptr<Cgroup> cgroup;         ///< nullptr = root cgroup
    const NamespaceSet* ns = nullptr;       ///< nullptr = init namespaces
    std::vector<int> allowed_cpus;          ///< empty = any core
  };
  std::shared_ptr<Task> spawn_task(const SpawnOptions& options);
  bool kill_task(HostPid pid);
  [[nodiscard]] std::shared_ptr<Task> find_task(HostPid pid) const;
  [[nodiscard]] const std::vector<std::shared_ptr<Task>>& tasks() const noexcept {
    return tasks_;
  }

  // --- power observability (simulator ground truth; the in-container view
  // goes through the fs module and may be namespaced by the defense) ---
  /// Whole-host package power during the last tick (W), including noise.
  [[nodiscard]] double last_tick_power_w() const noexcept {
    return last_tick_power_w_;
  }
  /// Lifetime host energy (J), all packages.
  [[nodiscard]] double lifetime_energy_j() const noexcept;
  /// Monotonic count of non-root cpuacct charges ever applied on this
  /// host. The provider's billing rollup compares it per server to find
  /// tenants whose usage may have moved since the last epoch — an
  /// unchanged marker proves every container cgroup's usage_ns is
  /// unchanged (the run_tick share loop is the only writer). Coast
  /// episodes never bump it (no scheduler runs while coasting), so the
  /// value is identical in parked and visit-all modes.
  [[nodiscard]] std::uint64_t nonroot_usage_marker() const noexcept {
    return nonroot_usage_marker_;
  }
  /// Current effective core frequency (Hz) after any RAPL capping.
  [[nodiscard]] double effective_freq_hz() const noexcept {
    return effective_freq_hz_;
  }

  /// Set (or lift, with 0) the host-level RAPL package power cap at
  /// runtime; rack-level cappers use this as their actuation knob.
  /// Re-asserting the current value is a pure no-op (no generation bump),
  /// so a capper that re-lifts an already-lifted cap every window cannot
  /// end a coast episode.
  void set_power_cap_w(double cap_w) noexcept {
    if (spec_.rapl_power_cap_w == cap_w) return;
    spec_.rapl_power_cap_w = cap_w;
    ++generation_;
  }

  // --- analytic idle coasting (hw/idle_coast.h) ---
  //
  // A coast-enabled host whose task table is exactly the baseline system
  // daemons, whose power cap is lifted and whose frequency is nominal may
  // *coast*: park its physics at an anchor snapshot and advance as a pure
  // closed form of elapsed time — zero RNG draws, frozen perf/cpuacct/VFS
  // jitter, constant noise-free idle power. advance_idle() is the per-tick
  // reference (one materialisation per tick, the "equivalent sequence of
  // idle ticks"); defer_idle()+coast_sync() is the deferred fast path. Any
  // split of the same interval lands on identical bits — per-tick, one
  // defer per skipped step, or a single defer of a whole parked stretch —
  // because every materialisation recomputes from the anchor and never
  // moves it. The Datacenter's parked mode leans on the strongest form:
  // a server parked for k steps gets one defer_idle(k*dt) at wake, not k
  // calls (split-invariance is pinned by tests/sparse_test.cpp).
  //
  // Episodes end only through mutation: every path that can change
  // eligibility (spawn/kill, cap change, mutable_* accessors) bumps
  // generation_, which coast_active() checks against the anchor.
  // Default off: standalone hosts keep the legacy per-tick regime
  // bit-for-bit; the Datacenter enables coasting on every server in both
  // never-park (CLEAKS_SPARSE=0) and parked mode.
  void set_coast_enabled(bool on) noexcept { coast_on_ = on; }
  /// True when the host may coast *now*: coast enabled, only the baseline
  /// system tasks, no power cap, frequency at nominal. Every input changes
  /// only through generation-bumping paths, so eligibility cannot flip
  /// mid-episode without coast_active() noticing.
  [[nodiscard]] bool coast_eligible() const noexcept;
  /// Per-tick idle advance: materialise the coast per tick_duration()
  /// tick (begins an episode if none is live). Equivalent in bits to
  /// defer_idle(duration) + coast_sync().
  void advance_idle(SimDuration duration);
  /// Deferred idle advance: accrue pending coast time in O(1) without
  /// touching any observable state (begins an episode if none is live —
  /// entry pins last_tick_power_w() to the constant idle power, so const
  /// power reads match per-tick stepping from the first coasted step).
  /// The parked scheduler calls this once with a whole parked stretch.
  void defer_idle(SimDuration duration);
  /// Materialise any pending deferred time. The episode stays live — a
  /// sync never re-anchors, so pure reads after a sync cannot diverge
  /// from a dense run where the same reads touch nothing.
  void coast_sync();
  /// Whether a coast episode is live (anchored and not invalidated by a
  /// later mutation).
  [[nodiscard]] bool coast_active() const noexcept {
    return coast_.active && generation_ == coast_.expected_generation;
  }

  /// Monotonic counter bumped whenever anything /proc- or /sys-visible may
  /// have changed (tick, task table change, runtime mutation). The scan
  /// reuse key (CrossValidator) includes it: equal generation, render epoch
  /// and viewer fingerprint ⇒ identical render bytes.
  [[nodiscard]] std::uint64_t state_generation() const noexcept {
    return generation_;
  }

  /// Stable logical id stamped on this host's event-bus emissions
  /// (obs/events.h): the server index in a facility, 0 standalone. Part of
  /// the merged-stream order, so it must be simulated identity — never the
  /// execution lane.
  void set_event_source(std::uint32_t source) noexcept {
    event_source_ = source;
  }
  [[nodiscard]] std::uint32_t event_source() const noexcept {
    return event_source_;
  }

  /// Per-host deterministic RNG fork for auxiliary consumers.
  [[nodiscard]] Rng fork_rng(std::string_view salt) const {
    return rng_base_.fork(salt);
  }

 private:
  /// Per-dt factors that are pure functions of the tick length (thermal RC
  /// decay, loadavg exponential-decay factors), computed once per distinct
  /// dt and reused — identical libm inputs give identical outputs, so
  /// caching cannot perturb a single bit.
  struct TickFactors {
    SimDuration dt = 0;
    bool valid = false;
    double thermal_decay = 0.0;
    double load1_factor = 0.0;
    double load5_factor = 0.0;
    double load15_factor = 0.0;
  };

  /// Anchor of an idle-coast episode: a snapshot of every /proc- and
  /// /sys-visible accumulator plus the constant rates in force while the
  /// host idles. materialize_coast_() overwrites live state from here as a
  /// pure function of elapsed time (see hw/idle_coast.h for why that makes
  /// any tick split of the same interval land on identical bits).
  struct CoastEpisode {
    bool active = false;
    std::uint64_t expected_generation = 0;  ///< stale once generation_ moves
    SimTime t0 = 0;                ///< host now() at the anchor
    SimDuration materialized = 0;  ///< elapsed already applied to live state
    SimDuration pending = 0;       ///< deferred by defer_idle, not yet applied
    // Snapshots.
    KernelState kstate;
    std::vector<hw::RaplDomainState> rapl;  ///< package-major {pkg,core,dram}
    std::vector<double> temps_c;
    std::vector<hw::CpuIdleCounter> deep_idle;  ///< deepest C-state per core
    // Constant rates derived at the anchor.
    double io_rate_per_s = 0.0;
    double ctxt_rate_per_s = 0.0;
    double load_target = 0.0;        ///< sum of min(1, duty) over tasks
    std::vector<double> pkg_watts;   ///< package-domain power per package
    std::vector<double> core_watts;  ///< core-domain power per package
    double dram_watts = 0.0;         ///< dram-domain power per package
  };

  void begin_coast_();
  void materialize_coast_(SimDuration elapsed);
  void run_tick(SimDuration dt);
  void integrate_energy(SimDuration dt);
  void update_kernel_counters(SimDuration dt, std::uint64_t ctx_before,
                              std::uint64_t migrations_before);
  void update_memory_accounting();
  void apply_power_capping();
  [[nodiscard]] int package_of_core(int core) const noexcept;
  [[nodiscard]] const TickFactors& factors_for(SimDuration dt);

  std::string name_;
  hw::HardwareSpec spec_;
  Rng rng_base_;
  Rng rng_;
  SimTime now_ = 0;
  SimDuration tick_duration_ = 100 * kMillisecond;

  hw::EnergyModel energy_model_;
  std::vector<hw::RaplPackage> rapl_;
  hw::ThermalModel thermal_;
  hw::CpuIdleAccounting cpuidle_;
  std::vector<double> core_power_w_;  ///< scratch per tick

  TickFactors factors_;             ///< per-dt factor cache
  std::vector<double> pkg_core_j_;  ///< per-tick package scratch
  std::vector<double> pkg_dram_j_;
  std::uint32_t event_source_ = 0;  ///< see set_event_source()

  NamespaceRegistry ns_registry_;
  NamespaceSet init_ns_;
  CgroupManager cgroups_;
  PerfEventSubsystem perf_;
  Scheduler sched_;
  std::vector<std::shared_ptr<Task>> tasks_;
  HostPid next_pid_ = 300;  ///< early pids belong to kernel threads

  bool coast_on_ = false;  ///< see set_coast_enabled()
  /// Size of the task table right after construction (the baseline system
  /// daemons); coast eligibility requires the table to still match it.
  std::size_t baseline_task_count_ = 0;
  CoastEpisode coast_;

  KernelState kstate_;
  double last_tick_power_w_ = 0.0;
  std::uint64_t nonroot_usage_marker_ = 0;  ///< see nonroot_usage_marker()
  double effective_freq_hz_ = 0.0;
  std::uint64_t ticks_run_ = 0;
  std::uint64_t generation_ = 0;  ///< see state_generation()
};

}  // namespace cleaks::kernel
