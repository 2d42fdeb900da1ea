#include "cloud/provider.h"

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/cycle_timer.h"
#include "util/strings.h"

namespace cleaks::cloud {
namespace {

// Control-plane telemetry. Launch/terminate counts derive from simulated
// state only (Scope::kSim, lane-count independent); the cycle counters
// measure wall cost and stay out of the kSim digest.
struct ProviderMetrics {
  obs::Counter& launches = obs::Registry::global().counter(
      "provider_launches_total", "instances launched by the provider");
  obs::Counter& terminates = obs::Registry::global().counter(
      "provider_terminates_total", "instances terminated by the provider");
  obs::Counter& control_cycles = obs::Registry::global().counter(
      "provider_step_control_cycles_total",
      "cycles spent in step()'s control plane (metering), excluding "
      "datacenter physics; unit = util/cycle_timer.h source",
      obs::Scope::kRuntime);
  obs::Counter& launch_control_cycles = obs::Registry::global().counter(
      "provider_launch_control_cycles_total",
      "cycles spent in launch's control plane (settle + placement pick + "
      "slab/index maintenance), excluding the container runtime create",
      obs::Scope::kRuntime);
  obs::Counter& terminate_control_cycles = obs::Registry::global().counter(
      "provider_terminate_control_cycles_total",
      "cycles spent in terminate's control plane (settle + slab/index "
      "removal), excluding the container runtime destroy",
      obs::Scope::kRuntime);

  static ProviderMetrics& get() {
    static ProviderMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::string to_string(PlacementPolicy policy) {
  // Exhaustive switch (no default): a new policy that misses a case fails
  // -Wswitch instead of silently stringifying wrong.
  switch (policy) {
    case PlacementPolicy::kRandom:
      return "random";
    case PlacementPolicy::kBinPack:
      return "bin-pack";
    case PlacementPolicy::kSpread:
      return "spread";
  }
  return "?";
}

CloudProvider::CloudProvider(Datacenter& datacenter, std::uint64_t seed,
                             BillingRates rates, PlacementPolicy placement,
                             int max_instances_per_server)
    : datacenter_(&datacenter),
      placement_rng_(seed),
      billing_(rates),
      placement_(placement),
      max_instances_per_server_(max_instances_per_server),
      index_(datacenter.num_servers(), max_instances_per_server),
      server_slots_(static_cast<std::size_t>(datacenter.num_servers())),
      last_marker_(static_cast<std::size_t>(datacenter.num_servers()), 0) {
  // Slot vectors can never exceed the placement cap (kSpread ignores the
  // cap only when every server is full, in which case nothing launches),
  // so pre-sizing removes per-server growth reallocations from the
  // launch hot path.
  if (max_instances_per_server_ > 0) {
    for (auto& slots : server_slots_) {
      slots.reserve(static_cast<std::size_t>(max_instances_per_server_));
    }
  }
}

int CloudProvider::pick_server() {
  const int total = datacenter_->num_servers();
  switch (placement_) {
    case PlacementPolicy::kRandom: {
      // Random among servers with room (all, when none is full). Same
      // single draw with the same bounds as the historical candidate
      // array, so the RNG stream position matches the goldens.
      const int room = index_.non_full_count();
      if (room == 0) {
        return static_cast<int>(placement_rng_.uniform_u64(0, total - 1));
      }
      return index_.nth_non_full(
          static_cast<int>(placement_rng_.uniform_u64(0, room - 1)));
    }
    case PlacementPolicy::kBinPack: {
      const int best = index_.lowest_max_occupancy_below_cap();
      return best < 0 ? 0 : best;
    }
    case PlacementPolicy::kSpread:
      return index_.lowest_min_occupancy();
  }
  return 0;
}

container::ContainerConfig CloudProvider::default_config_() const {
  container::ContainerConfig config;
  const auto& profile = datacenter_->config().profile;
  config.num_cpus = profile.default_container_cpus;
  config.memory_limit_bytes = profile.default_memory_limit;
  return config;
}

std::uint32_t CloudProvider::intern_tenant_(const std::string& tenant) {
  auto [it, inserted] =
      tenant_index_.emplace(tenant, static_cast<std::uint32_t>(tenants_.size()));
  if (inserted) {
    Tenant record;
    record.name = tenant;
    record.account = &billing_.account(tenant);
    tenants_.push_back(std::move(record));
  }
  return it->second;
}

std::uint32_t CloudProvider::launch_impl_(
    std::uint32_t tenant_slot, const container::ContainerConfig& config) {
  const std::uint64_t control_start = read_cycle_counter();
  // Settle BEFORE linking: the tenant's deferred intervals predate this
  // instance, so the replay must not see it.
  settle_tenant_(tenants_[tenant_slot]);

  const int server_index = pick_server();
  auto& server = datacenter_->server(server_index);
  const std::uint64_t create_start = read_cycle_counter();
  auto handle = server.runtime().create(config);
  const std::uint64_t create_cycles = read_cycle_counter() - create_start;

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Tenant& tenant = tenants_[tenant_slot];
  Instance& inst = slab_[slot];
  inst.tenant = tenant.name;
  inst.instance_id = handle->id();
  inst.uid = next_uid_++;
  inst.server_index = server_index;
  inst.handle = std::move(handle);
  inst.cpuacct_baseline_ns = inst.handle->cgroup()->cpuacct.total_usage_ns();
  inst.vcpus = inst.handle->cpuset().empty()
                   ? inst.handle->host().spec().num_cores
                   : static_cast<int>(inst.handle->cpuset().size());
  inst.tenant_slot = tenant_slot;
  inst.prev = tenant.tail;
  inst.next = kNil;
  if (tenant.tail != kNil) {
    slab_[tenant.tail].next = slot;
  } else {
    tenant.head = slot;
  }
  tenant.tail = slot;
  ++tenant.count;

  auto& slots = server_slots_[static_cast<std::size_t>(server_index)];
  inst.server_pos = static_cast<std::uint32_t>(slots.size());
  slots.push_back(slot);
  index_.add(server_index);
  id_index_.emplace(inst.instance_id, slot);
  uid_index_.emplace(inst.uid, slot);

  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    bus.emit(obs::EventKind::kContainerLifecycle, datacenter_->now(),
             static_cast<std::uint32_t>(server_index), /*a=*/1,
             fnv1a64(inst.instance_id));
  }
  auto& metrics = ProviderMetrics::get();
  metrics.launches.inc();
  metrics.launch_control_cycles.inc(read_cycle_counter() - control_start -
                                    create_cycles);
  return slot;
}

std::shared_ptr<TenantInstance> CloudProvider::launch(
    const std::string& tenant) {
  return launch(tenant, default_config_());
}

std::shared_ptr<TenantInstance> CloudProvider::launch(
    const std::string& tenant, const container::ContainerConfig& config) {
  const std::uint32_t slot = launch_impl_(intern_tenant_(tenant), config);
  const Instance& inst = slab_[slot];
  auto view = std::make_shared<TenantInstance>();
  view->tenant = inst.tenant;
  view->instance_id = inst.instance_id;
  view->uid = inst.uid;
  view->handle = inst.handle;
  return view;
}

void CloudProvider::launch_batch(const std::string& tenant, int count,
                                 std::vector<std::uint64_t>* out) {
  launch_batch(tenant, count, default_config_(), out);
}

void CloudProvider::launch_batch(const std::string& tenant, int count,
                                 const container::ContainerConfig& config,
                                 std::vector<std::uint64_t>* out) {
  const std::uint32_t tenant_slot = intern_tenant_(tenant);
  // Batches announce their size — reserve up front so the hash indexes
  // never rehash mid-batch (a single 1M-instance rehash walks gigabytes).
  const std::size_t target =
      id_index_.size() + static_cast<std::size_t>(count > 0 ? count : 0);
  id_index_.reserve(target);
  uid_index_.reserve(target);
  slab_.reserve(slab_.size() + static_cast<std::size_t>(count > 0 ? count : 0));
  if (out != nullptr) {
    out->reserve(out->size() + static_cast<std::size_t>(count > 0 ? count : 0));
  }
  for (int i = 0; i < count; ++i) {
    const std::uint32_t slot = launch_impl_(tenant_slot, config);
    if (out != nullptr) out->push_back(slab_[slot].uid);
  }
}

void CloudProvider::terminate_slot_(std::uint32_t slot) {
  const std::uint64_t control_start = read_cycle_counter();
  Instance& inst = slab_[slot];
  Tenant& tenant = tenants_[inst.tenant_slot];
  // Settle BEFORE unlinking: the deferred intervals accrued while this
  // instance was live, so the replay must still see it.
  settle_tenant_(tenant);

  const std::uint64_t destroy_start = read_cycle_counter();
  datacenter_->server(inst.server_index).runtime().destroy(inst.instance_id);
  const std::uint64_t destroy_cycles = read_cycle_counter() - destroy_start;
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    bus.emit(obs::EventKind::kContainerLifecycle, datacenter_->now(),
             static_cast<std::uint32_t>(inst.server_index), /*a=*/0,
             fnv1a64(inst.instance_id));
  }

  if (inst.prev != kNil) {
    slab_[inst.prev].next = inst.next;
  } else {
    tenant.head = inst.next;
  }
  if (inst.next != kNil) {
    slab_[inst.next].prev = inst.prev;
  } else {
    tenant.tail = inst.prev;
  }
  --tenant.count;

  auto& slots = server_slots_[static_cast<std::size_t>(inst.server_index)];
  const std::uint32_t back = slots.back();
  slots[inst.server_pos] = back;
  slab_[back].server_pos = inst.server_pos;
  slots.pop_back();
  index_.remove(inst.server_index);

  id_index_.erase(inst.instance_id);
  uid_index_.erase(inst.uid);
  inst.handle.reset();
  inst.instance_id.clear();
  inst.tenant.clear();
  free_slots_.push_back(slot);
  auto& metrics = ProviderMetrics::get();
  metrics.terminates.inc();
  metrics.terminate_control_cycles.inc(read_cycle_counter() - control_start -
                                       destroy_cycles);
}

bool CloudProvider::terminate(const std::string& instance_id) {
  auto it = id_index_.find(instance_id);
  if (it == id_index_.end()) return false;
  terminate_slot_(it->second);
  return true;
}

bool CloudProvider::terminate_uid(std::uint64_t uid) {
  auto it = uid_index_.find(uid);
  if (it == uid_index_.end()) return false;
  terminate_slot_(it->second);
  return true;
}

int CloudProvider::terminate_batch(const std::vector<std::uint64_t>& uids) {
  int terminated = 0;
  for (const std::uint64_t uid : uids) {
    if (terminate_uid(uid)) ++terminated;
  }
  return terminated;
}

int CloudProvider::terminate_oldest(const std::string& tenant, int count) {
  auto it = tenant_index_.find(tenant);
  if (it == tenant_index_.end()) return 0;
  int terminated = 0;
  while (terminated < count) {
    const std::uint32_t head = tenants_[it->second].head;
    if (head == kNil) break;
    terminate_slot_(head);
    ++terminated;
  }
  return terminated;
}

int CloudProvider::live_instances(const std::string& tenant) const {
  auto it = tenant_index_.find(tenant);
  return it == tenant_index_.end()
             ? 0
             : static_cast<int>(tenants_[it->second].count);
}

const CloudProvider::Instance* CloudProvider::find_instance(
    const std::string& instance_id) const {
  auto it = id_index_.find(instance_id);
  return it == id_index_.end() ? nullptr : &slab_[it->second];
}

const CloudProvider::Instance* CloudProvider::find_uid(
    std::uint64_t uid) const {
  auto it = uid_index_.find(uid);
  return it == uid_index_.end() ? nullptr : &slab_[it->second];
}

int CloudProvider::server_of(const std::string& instance_id) const {
  const Instance* inst = find_instance(instance_id);
  return inst == nullptr ? -1 : inst->server_index;
}

void CloudProvider::settle_tenant_(Tenant& tenant) {
  // Step-major replay in launch order: exactly the per-step fold the
  // historical meter ran, minus the +0.0 usage identities (cloud/billing.h).
  const PendingRun& run = tenant.pending;
  for (std::uint64_t step = 0; step < run.steps; ++step) {
    for (std::uint32_t slot = tenant.head; slot != kNil;
         slot = slab_[slot].next) {
      billing_.charge_reserve(*tenant.account, slab_[slot].vcpus, run.dt);
    }
  }
  tenant.pending.steps = 0;
}

void CloudProvider::settle_all_() {
  for (Tenant& tenant : tenants_) settle_tenant_(tenant);
}

void CloudProvider::meter_(SimDuration dt) {
  // Pass 1: one usage-marker read per occupied server, through a const
  // Server: an occupied server holds containers, so it is never parked. A
  // changed marker means some container cgroup on that host was charged
  // since we last looked — every tenant with an instance there meters
  // eagerly this step.
  touched_scratch_.clear();
  const Datacenter& datacenter = *datacenter_;
  const int total = datacenter.num_servers();
  for (int server = 0; server < total; ++server) {
    const auto& slots = server_slots_[static_cast<std::size_t>(server)];
    if (slots.empty()) continue;
    const std::uint64_t marker =
        datacenter.server(server).host().nonroot_usage_marker();
    auto& last = last_marker_[static_cast<std::size_t>(server)];
    if (marker == last) continue;
    last = marker;
    for (const std::uint32_t slot : slots) {
      Tenant& tenant = tenants_[slab_[slot].tenant_slot];
      if (tenant.touched == 0) {
        tenant.touched = 1;
        touched_scratch_.push_back(slab_[slot].tenant_slot);
      }
    }
  }
  // Pass 2: touched tenants settle their backlog, then walk their
  // instances with the historical per-step metering math.
  for (const std::uint32_t tenant_slot : touched_scratch_) {
    Tenant& tenant = tenants_[tenant_slot];
    settle_tenant_(tenant);
    for (std::uint32_t slot = tenant.head; slot != kNil;
         slot = slab_[slot].next) {
      Instance& inst = slab_[slot];
      const std::uint64_t usage_ns =
          inst.handle->cgroup()->cpuacct.total_usage_ns();
      const std::uint64_t delta_ns = usage_ns - inst.cpuacct_baseline_ns;
      inst.cpuacct_baseline_ns = usage_ns;
      if (delta_ns == 0) {
        billing_.charge_reserve(*tenant.account, inst.vcpus, dt);
      } else {
        billing_.charge_account(*tenant.account, inst.vcpus,
                                static_cast<double>(delta_ns) / 1e9, dt);
      }
    }
  }
  // Pass 3: everyone else defers this interval (O(1) per tenant); touched
  // flags reset here so pass 2's eager tenants are not double-billed.
  for (Tenant& tenant : tenants_) {
    if (tenant.touched != 0 || tenant.count == 0) {
      tenant.touched = 0;
      continue;
    }
    // One run holds steps of one length: settle before another joins.
    if (tenant.pending.dt != dt) settle_tenant_(tenant);
    tenant.pending.dt = dt;
    ++tenant.pending.steps;
  }
}

void CloudProvider::step(SimDuration dt) {
  datacenter_->step(dt);
  // Control-plane phase timed separately from physics: the scaling_fleet
  // flatness gate binds on this counter, since raw physics is O(tasks) by
  // design and grows with the fleet no matter what the control plane does.
  const std::uint64_t t0 = read_cycle_counter();
  meter_(dt);
  ProviderMetrics::get().control_cycles.inc(read_cycle_counter() - t0);
}

}  // namespace cleaks::cloud
