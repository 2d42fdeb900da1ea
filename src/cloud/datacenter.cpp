#include "cloud/datacenter.h"

#include <utility>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/strings.h"

namespace cleaks::cloud {
namespace {

// Facility telemetry. All values derive from simulated state, so they are
// bitwise-identical at every thread count (Scope::kSim, the default).
struct DcMetrics {
  obs::Counter& steps = obs::Registry::global().counter(
      "dc_steps_total", "Datacenter::step invocations");
  obs::Histogram& step_ns = obs::Registry::global().histogram(
      "dc_step_sim_ns",
      {kMillisecond, 10 * kMillisecond, 100 * kMillisecond, kSecond,
       10 * kSecond, kMinute},
      "simulated duration advanced per step");
  obs::Gauge& total_power = obs::Registry::global().gauge(
      "dc_power_total_w", "facility power after the last step");
  obs::Histogram& server_power = obs::Registry::global().histogram(
      "dc_server_power_mw",
      {50'000, 100'000, 150'000, 200'000, 300'000, 500'000},
      "per-server power per step, milliwatts");
  obs::Counter& breaker_trips = obs::Registry::global().counter(
      "dc_breaker_trips_total", "rack breaker trip events");
  obs::Counter& cap_enforcements = obs::Registry::global().counter(
      "dc_cap_enforcements_total", "rack capping windows that clamped");
  // Sparse-stepping accounting. Accrued from the per-step coast/active
  // decision, which is identical in the never-park and parked schedules —
  // so the facility kSim digest stays mode-independent even though the
  // counters are in it.
  obs::Counter& active_server_steps = obs::Registry::global().counter(
      "engine_active_server_steps_total",
      "server-steps that ran full per-tick physics (did not coast)");
  obs::Counter& idle_coasted_seconds = obs::Registry::global().counter(
      "engine_idle_coasted_sim_seconds_total",
      "sim-seconds advanced through the analytic idle coast");

  static DcMetrics& get() {
    static DcMetrics metrics;
    return metrics;
  }
};

bool resolve_sparse(int configured) {
  if (configured >= 0) return configured != 0;
  // Strict parse: CLEAKS_SPARSE must be numeric to count. The permissive
  // strtol-without-end-check this replaces read every non-numeric value
  // ("true", "yes", "") as 0 and silently disabled sparse stepping — the
  // opposite of what a user writing CLEAKS_SPARSE=true asked for.
  if (const auto parsed = env_long("CLEAKS_SPARSE")) {
    return *parsed != 0;
  }
  return true;
}

// Histogram quantization for dc_server_power_mw. Power is non-negative in
// every supported configuration, but casting a negative double to u64 is
// undefined behavior — clamp instead of trusting the physics.
std::uint64_t power_mw_of(double power_w) noexcept {
  return power_w > 0.0 ? static_cast<std::uint64_t>(power_w * 1000.0)
                       : std::uint64_t{0};
}

}  // namespace

Datacenter::Datacenter(DatacenterConfig config)
    : config_(std::move(config)),
      pool_(config_.num_threads),
      sparse_(resolve_sparse(config_.sparse)) {
  Rng rng(config_.seed);
  // Servers in one rack were installed and powered on together (§IV-C):
  // their uptimes cluster within minutes, while racks differ by weeks.
  std::vector<SimDuration> rack_bases;
  for (int rack = 0; rack < config_.num_racks; ++rack) {
    rack_bases.push_back(SimDuration(30 + rack * 19) * kDay +
                         rng.uniform_u64(0, kDay));
  }
  const int total = config_.num_racks * config_.servers_per_rack;
  servers_.reserve(static_cast<std::size_t>(total));
  for (int index = 0; index < total; ++index) {
    const int rack = index / config_.servers_per_rack;
    SimDuration prior_uptime = rack_bases[static_cast<std::size_t>(rack)] +
                               rng.uniform_u64(0, 15 * kMinute);
    std::uint64_t seed = rng.fork(1000 + index).uniform_u64(1, ~0ULL >> 1);
    if (index == 0 && config_.pinned_host) {
      seed = config_.pinned_host->seed;
      prior_uptime = config_.pinned_host->prior_uptime;
    }
    auto server = std::make_unique<Server>(strformat("server-%02d", index),
                                           config_.profile, seed, prior_uptime);
    if (config_.benign_load && (config_.benign_load_servers < 0 ||
                                index < config_.benign_load_servers)) {
      workload::DiurnalParams params;
      params.phase_days = rng.uniform(-0.08, 0.08);
      params.base_utilization = rng.uniform(0.16, 0.30);
      server->enable_benign_load(rng.fork(2000 + index).uniform_u64(1, ~0ULL >> 1),
                                 params);
    }
    servers_.push_back(std::move(server));
  }
  // Event-bus identity and wake-list entry: the server index, a pure
  // function of the config — never the pool lane that happens to step the
  // server.
  for (std::size_t index = 0; index < servers_.size(); ++index) {
    Server& server = *servers_[index];
    server.host().set_event_source(static_cast<std::uint32_t>(index));
    server.index_ = static_cast<std::uint32_t>(index);
    server.facility_now_ = &now_;
    server.wake_list_ = &woken_;
  }
  const auto count = static_cast<std::size_t>(total);
  coasted_.assign(count, 0);
  // Register the facility metrics up front, so a facility that never
  // steps still carries their keys in its envelope.
  (void)DcMetrics::get();
  active_ids_.reserve(count);
  for (std::size_t index = 0; index < count; ++index) {
    active_ids_.push_back(static_cast<std::uint32_t>(index));
  }
  power_w_.reserve(count);
  for (const auto& server : servers_) power_w_.push_back(server->power_w());
  breakers_.assign(static_cast<std::size_t>(config_.num_racks),
                   CircuitBreaker{config_.rack_breaker});
  rack_energy_since_cap_j_.assign(static_cast<std::size_t>(config_.num_racks),
                                  0.0);
  rack_dirty_.assign(static_cast<std::size_t>(config_.num_racks), 0);
  rack_power_cache_.assign(static_cast<std::size_t>(config_.num_racks), 0.0);
  double facility = 0.0;
  for (int rack = 0; rack < config_.num_racks; ++rack) {
    double sum = 0.0;
    const int first = rack * config_.servers_per_rack;
    for (int offset = 0; offset < config_.servers_per_rack; ++offset) {
      sum += power_w_[static_cast<std::size_t>(first + offset)];
    }
    rack_power_cache_[static_cast<std::size_t>(rack)] = sum;
    facility += sum;
  }
  total_power_cache_ = facility;
}

void Datacenter::step(SimDuration dt) {
  auto& metrics = DcMetrics::get();
  // Servers settled since the last step rejoin the active list.
  active_ids_.insert(active_ids_.end(), woken_.begin(), woken_.end());
  woken_.clear();
  // Step phase: only the active list. Servers are fully independent state
  // machines with per-server RNG streams, so they step concurrently; every
  // cross-server observation (breakers, capper, telemetry aggregation)
  // happens below, on this thread, after the join. Parked servers are not
  // visited at all — the server defers its owed time in one call when it
  // is next settled (the same coast episode sees the same elapsed time, so
  // the skip is invisible to the resulting bits).
  const std::size_t n_step = active_ids_.size();
  pool_.parallel_for(n_step, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t index = active_ids_[k];
      Server& server = *servers_[index];
      coasted_[index] = server.step(dt) ? 1 : 0;
      // Refresh the aggregation cache while the server is hot in cache.
      power_w_[index] = server.power_w();
    }
  });
  now_ += dt;
  metrics.steps.inc();
  metrics.step_ns.observe(dt);
  // Aggregation, O(stepped + racks). The power histogram observes only
  // the server-steps that ran physics, so a coasting server counts the
  // same whether it stepped on the active list or sat parked. Coasted
  // time accrues in ns and flushes to the counter in whole sim-seconds.
  // Every stepped server whose step coasted parks (serial, backward over
  // the active list so the swap-remove only moves visited entries).
  std::uint64_t active_servers = 0;
  coasted_ns_total_ +=
      static_cast<std::uint64_t>(dt) * (servers_.size() - n_step);
  for (std::size_t k = n_step; k-- > 0;) {
    const std::uint32_t index = active_ids_[k];
    mark_rack_dirty_(rack_of(static_cast<int>(index)));
    if (coasted_[index] == 0) {
      ++active_servers;
      metrics.server_power.observe(power_mw_of(power_w_[index]));
      continue;
    }
    coasted_ns_total_ += dt;
    if (!sparse_) continue;
    Server& server = *servers_[index];
    server.parked_ = true;
    server.parked_at_ = now_;
    active_ids_[k] = active_ids_.back();
    active_ids_.pop_back();
  }
  metrics.active_server_steps.inc(active_servers);
  const std::uint64_t coasted_s = coasted_ns_total_ / kSecond;
  metrics.idle_coasted_seconds.inc(coasted_s - coasted_s_flushed_);
  coasted_s_flushed_ = coasted_s;
  // Racks with a stepped server get a fresh index-order fold — the same
  // left-to-right float sum the historical O(N) read performed, so the
  // cached value is bit-identical to it. Parked servers' power is pinned,
  // so the other racks cannot have changed.
  for (const std::uint32_t rack : dirty_racks_) {
    double sum = 0.0;
    const int first = static_cast<int>(rack) * config_.servers_per_rack;
    for (int offset = 0; offset < config_.servers_per_rack; ++offset) {
      sum += power_w_[static_cast<std::size_t>(first + offset)];
    }
    rack_power_cache_[rack] = sum;
    rack_dirty_[rack] = 0;
  }
  dirty_racks_.clear();
  double facility = 0.0;
  for (int rack = 0; rack < config_.num_racks; ++rack) {
    const double power = rack_power_cache_[static_cast<std::size_t>(rack)];
    facility += power;
    auto& breaker = breakers_[static_cast<std::size_t>(rack)];
    const bool was_tripped = breaker.tripped();
    breaker.observe(power, dt);
    if (!was_tripped && breaker.tripped()) metrics.breaker_trips.inc();
    rack_energy_since_cap_j_[static_cast<std::size_t>(rack)] +=
        power * to_seconds(dt);
  }
  total_power_cache_ = facility;
  metrics.total_power.set(total_power_cache_);
  if (config_.rack_power_cap_w > 0.0 &&
      now_ - last_cap_check_ >= config_.capping_interval) {
    for (int rack = 0; rack < config_.num_racks; ++rack) {
      apply_rack_capping(rack);
      rack_energy_since_cap_j_[static_cast<std::size_t>(rack)] = 0.0;
    }
    last_cap_check_ = now_;
  }
}

void Datacenter::apply_rack_capping(int rack) {
  // Average power since the last check: the capper only ever sees the
  // minute-scale mean, never the 1-second spike.
  const double window_sec =
      to_seconds(now_ - last_cap_check_ > 0 ? now_ - last_cap_check_
                                            : config_.capping_interval);
  const double avg_w =
      rack_energy_since_cap_j_[static_cast<std::size_t>(rack)] / window_sec;
  const int first = rack * config_.servers_per_rack;
  const double per_server_cap =
      avg_w > config_.rack_power_cap_w
          ? config_.rack_power_cap_w / config_.servers_per_rack
          : 0.0;  // lift the cap
  if (per_server_cap > 0.0) DcMetrics::get().cap_enforcements.inc();
  for (int offset = 0; offset < config_.servers_per_rack; ++offset) {
    Server& server = *servers_[static_cast<std::size_t>(first + offset)];
    // Enforcing a cap on a just-parked server wakes it through host().
    // A parked server's cap is already 0, so lifting wakes nothing.
    if (std::as_const(server).host().spec().rapl_power_cap_w ==
        per_server_cap) {
      continue;
    }
    server.host().set_power_cap_w(per_server_cap);
  }
}

bool Datacenter::any_breaker_tripped() const {
  for (const auto& breaker : breakers_) {
    if (breaker.tripped()) return true;
  }
  return false;
}

}  // namespace cleaks::cloud
