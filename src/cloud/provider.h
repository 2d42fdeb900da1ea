// CloudProvider: the multi-tenant container service API, at fleet scale.
//
// Tenants launch and terminate container instances; the provider places
// them on servers (uniformly at random, as public container clouds do from
// the tenant's perspective), meters utilization-based billing, and exposes
// only the tenant-facing handle (TenantInstance — no server index;
// repeated launch/verify/terminate against this API is exactly the
// co-residence orchestration loop of §IV-C, and §IV-C tenants must infer
// placement through leakage channels, not read it off the control plane).
//
// Control-plane data structures (PR 10) are sized for CC1–CC5 fleets:
//
//   * placement — PlacementIndex keeps per-server counts and a Fenwick
//     tree over the "has room" flag, so kRandom picks in O(log R) instead
//     of the historical O(R) occupancy rebuild; kSpread and kBinPack scan
//     the counts in O(R). Choices and RNG draw structure are
//     bitwise-identical (placement stays a single sequential stream
//     seeded by the constructor seed; draw bounds per launch are
//     unchanged, so sequences match the recorded pre-refactor goldens);
//   * instance table — a slab (std::vector slots + free list) keyed by a
//     monotonic uid, with hash indexes by container id and uid, intrusive
//     per-tenant lists in launch order (the billing fold order) and
//     per-server slot vectors (swap-remove): launch and terminate are
//     O(log R) + O(1) bookkeeping, no shared_ptr allocation on the batch
//     path, and tenant handles stay valid across arbitrary churn;
//   * billing rollups — per-tenant deferred metering. Each step the
//     provider compares one usage marker per occupied server
//     (kernel::Host::nonroot_usage_marker through a const Server, which
//     does not settle) to find *touched* tenants; only those walk their
//     instances. Untouched tenants accrue one deferred (dt × steps) run
//     that is settled — replayed reserve-charge by reserve-charge in
//     launch order — before a step of another length joins it, when the
//     tenant is touched, on any launch/terminate for that tenant, or on a
//     billing() query. Settling is bitwise-equal to the historical
//     every-instance-every-step walk because each account sees the same
//     charges in the same order and an idle interval's usage terms are
//     +0.0 identities (see cloud/billing.h). Provider::step therefore
//     costs O(servers + tenants + touched instances), not O(instances).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/billing.h"
#include "cloud/datacenter.h"
#include "cloud/placement_index.h"
#include "container/container.h"

namespace cleaks::cloud {

/// Placement policy the provider uses for new instances. Tenants cannot
/// observe it directly — but it governs how hard co-residence is to
/// achieve (Varadarajan et al., cited by the paper, showed the cost is
/// low in practice).
enum class PlacementPolicy {
  kRandom,      ///< uniform choice over all servers
  kBinPack,     ///< fill the most-occupied server that still has room
  kSpread,      ///< least-occupied server first
};

std::string to_string(PlacementPolicy policy);

/// A tenant's view of one launched container instance. Deliberately omits
/// the server index (provider-internal; see CloudProvider::server_of for
/// the engine/test-side accessor).
struct TenantInstance {
  std::string tenant;
  std::string instance_id;  ///< container id
  std::uint64_t uid = 0;    ///< monotonic provider-wide instance uid
  std::shared_ptr<container::Container> handle;
};

class CloudProvider {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Provider-internal instance record (one slab slot). Tenants see
  /// TenantInstance; simulation-side code (engine, tests, benches) may
  /// inspect the full record through find_instance()/find_uid().
  struct Instance {
    std::string tenant;
    std::string instance_id;
    std::uint64_t uid = 0;
    int server_index = -1;
    std::shared_ptr<container::Container> handle;
    std::uint64_t cpuacct_baseline_ns = 0;
    /// Billed vCPUs, pinned at launch (cpusets never change after
    /// allocate_cpuset; empty cpuset bills the host's full core count,
    /// exactly as the historical per-step recomputation did).
    int vcpus = 0;
    std::uint32_t tenant_slot = 0;
    std::uint32_t prev = kNil;  ///< tenant launch-order list links
    std::uint32_t next = kNil;
    std::uint32_t server_pos = 0;  ///< position in the per-server slot list
  };

  CloudProvider(Datacenter& datacenter, std::uint64_t seed,
                BillingRates rates = BillingRates{},
                PlacementPolicy placement = PlacementPolicy::kRandom,
                int max_instances_per_server = 8);

  /// Launch a container for `tenant` on a provider-chosen server. Both
  /// overloads route through one implementation; the default-config form
  /// only fills in the profile's container defaults first, so RNG stream
  /// consumption is identical.
  std::shared_ptr<TenantInstance> launch(const std::string& tenant);
  std::shared_ptr<TenantInstance> launch(const std::string& tenant,
                                         const container::ContainerConfig& config);

  /// Churn-engine batch forms: `count` launches (uids appended to `out`)
  /// and bulk terminates, with no per-instance shared_ptr allocation.
  void launch_batch(const std::string& tenant, int count,
                    std::vector<std::uint64_t>* out = nullptr);
  void launch_batch(const std::string& tenant, int count,
                    const container::ContainerConfig& config,
                    std::vector<std::uint64_t>* out = nullptr);
  int terminate_batch(const std::vector<std::uint64_t>& uids);
  /// Terminate the tenant's `count` oldest live instances (launch order).
  int terminate_oldest(const std::string& tenant, int count);

  bool terminate(const std::string& instance_id);
  bool terminate_uid(std::uint64_t uid);

  /// Advance the cloud (datacenter physics + billing metering).
  void step(SimDuration dt);

  [[nodiscard]] Datacenter& datacenter() noexcept { return *datacenter_; }
  /// Billing readout. Settles every pending rollup first so queries are
  /// exact at any instant.
  [[nodiscard]] BillingMeter& billing() {
    settle_all_();
    return billing_;
  }

  [[nodiscard]] PlacementPolicy placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] std::size_t instance_count() const noexcept {
    return id_index_.size();
  }
  [[nodiscard]] int live_instances(const std::string& tenant) const;
  /// Full provider-side record, nullptr when unknown. The pointer is
  /// invalidated by the next launch (slab growth) — copy what you need.
  [[nodiscard]] const Instance* find_instance(
      const std::string& instance_id) const;
  [[nodiscard]] const Instance* find_uid(std::uint64_t uid) const;
  /// Placement of a live instance (-1 when unknown) — the simulation-side
  /// replacement for the old tenant-visible Instance::server_index.
  [[nodiscard]] int server_of(const std::string& instance_id) const;

 private:
  struct PendingRun {
    SimDuration dt = 0;
    std::uint64_t steps = 0;
  };
  struct Tenant {
    std::string name;
    std::uint32_t head = kNil;  ///< instance list in launch order
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;
    BillingMeter::Account* account = nullptr;
    PendingRun pending;        ///< deferred idle steps, all of one length
    std::uint8_t touched = 0;  ///< scratch flag for the current step
  };

  [[nodiscard]] int pick_server();
  [[nodiscard]] std::uint32_t intern_tenant_(const std::string& tenant);
  std::uint32_t launch_impl_(std::uint32_t tenant_slot,
                             const container::ContainerConfig& config);
  void terminate_slot_(std::uint32_t slot);
  [[nodiscard]] container::ContainerConfig default_config_() const;
  /// Replay the tenant's deferred idle steps (reserve charges in launch
  /// order, step-major — the historical fold order).
  void settle_tenant_(Tenant& tenant);
  void settle_all_();
  /// Per-step metering: marker scan -> eager walk for touched tenants,
  /// deferred run for the rest.
  void meter_(SimDuration dt);

  Datacenter* datacenter_;
  Rng placement_rng_;
  BillingMeter billing_;
  PlacementPolicy placement_;
  int max_instances_per_server_;

  PlacementIndex index_;
  std::vector<Instance> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::string, std::uint32_t> id_index_;
  std::unordered_map<std::uint64_t, std::uint32_t> uid_index_;
  std::uint64_t next_uid_ = 1;

  std::vector<Tenant> tenants_;
  std::unordered_map<std::string, std::uint32_t> tenant_index_;
  std::vector<std::uint32_t> touched_scratch_;  ///< tenant slots, per step

  std::vector<std::vector<std::uint32_t>> server_slots_;
  std::vector<std::uint64_t> last_marker_;  ///< per-server usage markers
};

}  // namespace cleaks::cloud
