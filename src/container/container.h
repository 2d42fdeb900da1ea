// Container and ContainerRuntime: the Docker/LXC layer of the simulation.
//
// A container is a set of freshly cloned namespaces, a cgroup subtree
// ("/docker/<id>") with cpuset/memory/cpu limits, and one or more tasks.
// The runtime mounts the host's pseudo filesystems into every container
// (read-only, as Docker does) and applies the cloud provider's masking
// policy on reads — the exact surface §III studies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fs/masking.h"
#include "fs/pseudo_fs.h"
#include "kernel/host.h"
#include "util/result.h"

namespace cleaks::container {

struct ContainerConfig {
  /// Number of cores in the container's cpuset (0 = all host cores).
  int num_cpus = 0;
  /// Memory limit in bytes (0 = unlimited).
  std::uint64_t memory_limit_bytes = 0;
  /// Per-core CPU bandwidth quota (fraction, < 0 = none).
  double cpu_quota = -1.0;
  kernel::CloneFlags clone_flags;
};

class ContainerRuntime;

class Container {
 public:
  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const std::string& hostname() const noexcept { return id_; }
  [[nodiscard]] const kernel::NamespaceSet& ns() const noexcept { return ns_; }
  [[nodiscard]] const std::shared_ptr<kernel::Cgroup>& cgroup() const noexcept {
    return cgroup_;
  }
  [[nodiscard]] const std::vector<int>& cpuset() const noexcept {
    return cgroup_->cpuset.cpus;
  }
  [[nodiscard]] kernel::Host& host() const noexcept { return *host_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }

  /// Launch a process inside the container.
  std::shared_ptr<kernel::Task> run(const std::string& comm,
                                    const kernel::TaskBehavior& behavior);

  /// Terminate one process by host pid.
  bool kill(kernel::HostPid pid);

  /// The container's init (pid 1 in its PID namespace).
  [[nodiscard]] const kernel::Task* init_task() const noexcept {
    return init_task_.get();
  }
  [[nodiscard]] const std::vector<std::shared_ptr<kernel::Task>>& tasks()
      const noexcept {
    return tasks_;
  }

  /// Read a pseudo file from inside this container — the tenant's view,
  /// with namespaces and the provider's masking policy applied.
  [[nodiscard]] Result<std::string> read_file(const std::string& path) const;

  /// Same view, rendered into a caller-provided buffer (replacing its
  /// contents). Scanner hot loops keep one buffer per worker.
  StatusCode read_file_into(std::string_view path, std::string& out) const;

 private:
  friend class ContainerRuntime;

  std::string id_;
  kernel::Host* host_ = nullptr;
  const fs::PseudoFs* fs_ = nullptr;
  const fs::MaskingPolicy* policy_ = nullptr;
  kernel::NamespaceSet ns_;
  std::shared_ptr<kernel::Cgroup> cgroup_;
  std::shared_ptr<kernel::Task> init_task_;
  std::vector<std::shared_ptr<kernel::Task>> tasks_;
  bool alive_ = true;
};

/// Creates and destroys containers on one host.
class ContainerRuntime {
 public:
  /// `policy` is the provider's pseudo-file hardening (stage-1 defense);
  /// the stock Docker default masks nothing.
  ContainerRuntime(kernel::Host& host, fs::PseudoFs& fs,
                   fs::MaskingPolicy policy = fs::MaskingPolicy::docker_default());

  std::shared_ptr<Container> create(const ContainerConfig& config);
  bool destroy(const std::string& id);
  [[nodiscard]] std::shared_ptr<Container> find(const std::string& id) const;
  [[nodiscard]] const std::vector<std::shared_ptr<Container>>& containers()
      const noexcept {
    return containers_;
  }
  [[nodiscard]] const fs::MaskingPolicy& policy() const noexcept {
    return policy_;
  }
  /// Replace the masking policy at runtime (stage-1 defense rollout);
  /// affects existing and future containers alike.
  void set_policy(fs::MaskingPolicy policy) { policy_ = std::move(policy); }
  [[nodiscard]] fs::PseudoFs& filesystem() noexcept { return *fs_; }
  [[nodiscard]] kernel::Host& host() noexcept { return *host_; }

  /// Hook invoked on container creation/destruction; the power-based
  /// namespace uses it to set up per-container perf accounting (§V-B1).
  using LifecycleHook =
      std::function<void(Container&, bool /*created, false=destroying*/)>;
  void set_lifecycle_hook(LifecycleHook hook) { hook_ = std::move(hook); }

 private:
  /// Pick `count` cores, least-subscribed first.
  [[nodiscard]] std::vector<int> allocate_cpuset(int count) const;

  kernel::Host* host_;
  fs::PseudoFs* fs_;
  fs::MaskingPolicy policy_;
  std::vector<std::shared_ptr<Container>> containers_;
  LifecycleHook hook_;
  Rng id_rng_;
};

}  // namespace cleaks::container
