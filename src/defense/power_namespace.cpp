#include "defense/power_namespace.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace cleaks::defense {
namespace {

/// Virtual counters wrap like the hardware ones.
constexpr double kRangeUj =
    static_cast<double>(hw::RaplDomain::kDefaultRangeUj);

double rapl_lifetime_j(const kernel::Host& host, hw::RaplDomainKind domain) {
  double total = 0.0;
  for (const auto& pkg : host.rapl()) {
    switch (domain) {
      case hw::RaplDomainKind::kCore:
        total += pkg.core().lifetime_energy_j();
        break;
      case hw::RaplDomainKind::kDram:
        total += pkg.dram().lifetime_energy_j();
        break;
      case hw::RaplDomainKind::kPackage:
        total += pkg.package().lifetime_energy_j();
        break;
    }
  }
  return total;
}

}  // namespace

PowerNamespace::PowerNamespace(container::ContainerRuntime& runtime,
                               PowerModel model)
    : runtime_(&runtime), model_(std::move(model)) {}

PowerNamespace::~PowerNamespace() {
  if (enabled_) disable();
}

void PowerNamespace::enable() {
  if (enabled_) return;
  auto& host = runtime_->host();
  const int cores = host.spec().num_cores;

  auto& root = *host.cgroups().root();
  if (!kernel::PerfEventSubsystem::has_events(root)) {
    host.perf().create_cgroup_events(root, cores);
    root_events_created_ = true;
  }
  for (const auto& instance : runtime_->containers()) {
    host.perf().create_cgroup_events(*instance->cgroup(), cores);
    states_[instance->id()] = ContainerState{};
  }
  runtime_->set_lifecycle_hook(
      [this](container::Container& instance, bool created) {
        auto& perf = runtime_->host().perf();
        if (created) {
          perf.create_cgroup_events(*instance.cgroup(),
                                    runtime_->host().spec().num_cores);
          states_[instance.id()] = ContainerState{};
        } else {
          perf.destroy_cgroup_events(*instance.cgroup());
          states_.erase(instance.id());
        }
      });
  runtime_->filesystem().set_rapl_provider(this);
  primed_ = false;
  enabled_ = true;
  // Establish the counter baseline now so the first tenant read after a
  // step already reports the energy accrued since enablement.
  std::lock_guard<std::mutex> lock(mu_);
  refresh(host);
}

void PowerNamespace::disable() {
  if (!enabled_) return;
  runtime_->filesystem().set_rapl_provider(nullptr);
  runtime_->set_lifecycle_hook({});
  auto& host = runtime_->host();
  for (const auto& instance : runtime_->containers()) {
    host.perf().destroy_cgroup_events(*instance->cgroup());
  }
  if (root_events_created_) {
    host.perf().destroy_cgroup_events(*host.cgroups().root());
    root_events_created_ = false;
  }
  states_.clear();
  enabled_ = false;
}

PerfDelta PowerNamespace::to_delta(const kernel::PerfCounters& before,
                                   const kernel::PerfCounters& after,
                                   double seconds) {
  PerfDelta delta;
  delta.instructions =
      static_cast<double>(after.instructions - before.instructions);
  delta.cache_misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  delta.branch_misses =
      static_cast<double>(after.branch_misses - before.branch_misses);
  delta.cycles = static_cast<double>(after.cycles - before.cycles);
  delta.seconds = seconds;
  return delta;
}

void PowerNamespace::refresh(const kernel::Host& host) const {
  const SimTime now = host.now();
  if (primed_ && now <= last_refresh_) return;

  // Host-wide perf totals = root cgroup + every container cgroup.
  kernel::PerfCounters root_now =
      kernel::PerfEventSubsystem::read(*host.cgroups().root());
  kernel::PerfCounters host_now = root_now;
  std::map<std::string, kernel::PerfCounters> container_now;
  for (const auto& instance : runtime_->containers()) {
    const auto counters =
        kernel::PerfEventSubsystem::read(*instance->cgroup());
    container_now[instance->id()] = counters;
    host_now.instructions += counters.instructions;
    host_now.cache_misses += counters.cache_misses;
    host_now.branch_misses += counters.branch_misses;
    host_now.cycles += counters.cycles;
  }

  const double rapl_core_j = rapl_lifetime_j(host, hw::RaplDomainKind::kCore);
  const double rapl_dram_j = rapl_lifetime_j(host, hw::RaplDomainKind::kDram);
  const double rapl_package_j =
      rapl_lifetime_j(host, hw::RaplDomainKind::kPackage);

  if (!primed_) {
    last_root_perf_ = host_now;
    last_rapl_core_j_ = rapl_core_j;
    last_rapl_dram_j_ = rapl_dram_j;
    last_rapl_package_j_ = rapl_package_j;
    last_refresh_ = now;
    for (auto& [id, state] : states_) {
      auto it = container_now.find(id);
      if (it != container_now.end()) state.last_perf = it->second;
    }
    primed_ = true;
    return;
  }

  const double seconds = to_seconds(now - last_refresh_);
  last_interval_s_ = seconds;
  const PerfDelta host_delta = to_delta(last_root_perf_, host_now, seconds);

  // Stage 2 of the read path: model the host and each container.
  const double m_host_core = model_.core_energy_j(host_delta);
  const double m_host_dram = model_.dram_energy_j(host_delta);
  const double m_host_package = model_.package_energy_j(host_delta);

  const double e_core = rapl_core_j - last_rapl_core_j_;
  const double e_dram = rapl_dram_j - last_rapl_dram_j_;
  const double e_package = rapl_package_j - last_rapl_package_j_;

  // Live ξ (Formula 4): relative error of the modeled host package energy
  // against the hardware counter, over the refresh interval just closed.
  if (e_package > 0.0) {
    static obs::Gauge& xi_gauge = obs::Registry::global().gauge(
        "defense_power_model_xi",
        "power-model calibration error against hardware RAPL");
    xi_gauge.set(std::fabs(m_host_package - e_package) / e_package);
  }

  for (auto& [id, state] : states_) {
    auto it = container_now.find(id);
    if (it == container_now.end()) continue;
    const PerfDelta delta = to_delta(state.last_perf, it->second, seconds);
    state.last_perf = it->second;

    const double m_core = model_.core_energy_j(delta);
    const double m_dram = model_.dram_energy_j(delta);
    const double m_package = model_.package_energy_j(delta);

    // Formula 3: calibrate each modeled value against hardware truth.
    auto calibrate = [](double m_container, double m_host, double e_rapl,
                        double fallback) {
      if (m_host <= 0.0 || e_rapl <= 0.0) return fallback;
      return m_container / m_host * e_rapl;
    };
    state.core.last_delta_j = calibrate(m_core, m_host_core, e_core, m_core);
    state.dram.last_delta_j = calibrate(m_dram, m_host_dram, e_dram, m_dram);
    state.package.last_delta_j =
        calibrate(m_package, m_host_package, e_package, m_package);

    auto accumulate = [](DomainCounter& counter) {
      counter.virt_uj += counter.last_delta_j * 1e6;
      while (counter.virt_uj >= kRangeUj) counter.virt_uj -= kRangeUj;
    };
    accumulate(state.core);
    accumulate(state.dram);
    accumulate(state.package);
  }

  last_root_perf_ = host_now;
  last_rapl_core_j_ = rapl_core_j;
  last_rapl_dram_j_ = rapl_dram_j;
  last_rapl_package_j_ = rapl_package_j;
  last_refresh_ = now;
}

std::uint64_t PowerNamespace::energy_uj(const kernel::Host& host,
                                        const kernel::Task* viewer,
                                        int package,
                                        hw::RaplDomainKind domain) const {
  // Host context keeps hardware truth — the namespace only changes the
  // containerized view (transparency goal).
  const bool containerized = viewer != nullptr && viewer->is_containerized();
  if (!containerized) {
    const auto& packages = host.rapl();
    if (package < 0 ||
        static_cast<std::size_t>(package) >= packages.size()) {
      return 0;
    }
    const auto& pkg = packages[static_cast<std::size_t>(package)];
    switch (domain) {
      case hw::RaplDomainKind::kPackage:
        return pkg.package().energy_uj();
      case hw::RaplDomainKind::kCore:
        return pkg.core().energy_uj();
      case hw::RaplDomainKind::kDram:
        return pkg.dram().energy_uj();
    }
    return 0;
  }

  std::lock_guard<std::mutex> lock(mu_);
  refresh(host);
  auto it = states_.find(viewer->container_id);
  if (it == states_.end()) return 0;
  const ContainerState& state = it->second;
  // The container-wide virtual counter is presented uniformly across the
  // host's package indices.
  const double divisor = std::max(1, host.spec().num_packages);
  double value_uj = 0.0;
  switch (domain) {
    case hw::RaplDomainKind::kPackage:
      value_uj = state.package.virt_uj;
      break;
    case hw::RaplDomainKind::kCore:
      value_uj = state.core.virt_uj;
      break;
    case hw::RaplDomainKind::kDram:
      value_uj = state.dram.virt_uj;
      break;
  }
  return static_cast<std::uint64_t>(value_uj / divisor);
}

double PowerNamespace::last_power_w(const std::string& container_id,
                                    hw::RaplDomainKind domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(container_id);
  if (it == states_.end()) return 0.0;
  const auto& state = it->second;
  const DomainCounter* counter = &state.package;
  if (domain == hw::RaplDomainKind::kCore) counter = &state.core;
  if (domain == hw::RaplDomainKind::kDram) counter = &state.dram;
  return counter->last_delta_j / std::max(last_interval_s_, 1e-9);
}

void apply_stage1_masking(container::ContainerRuntime& runtime) {
  runtime.set_policy(fs::MaskingPolicy::paper_stage1());
}

}  // namespace cleaks::defense
