#include "fs/pseudo_fs.h"

#include <algorithm>
#include <compare>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "faults/injector.h"
#include "fs/render.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/fnv.h"
#include "util/strings.h"

namespace cleaks::fs {
namespace {

// Pseudo-fs telemetry. Every value counts reads/renders that the simulation
// performs deterministically (the same set of reads happens at every thread
// count, and the cache is locked per file), so these stay Scope::kSim.
//
// Invariant: none of these counters fire on an *uncacheable* static-path
// render — /proc/containerleaks renders the registry that contains them,
// and a read that bumped a counter appearing in its own output would never
// produce the same bytes twice (RenderCache.ReadIntoMatchesRead pins
// exactly that stability).
struct FsMetrics {
  obs::Counter& cache_hits = obs::Registry::global().counter(
      "fs_render_cache_hits_total", "host-context renders served from cache");
  obs::Counter& cache_misses = obs::Registry::global().counter(
      "fs_render_cache_misses_total", "host-context renders that ran the generator");
  obs::Counter& cache_invalidations = obs::Registry::global().counter(
      "fs_render_cache_invalidations_total",
      "cached bytes discarded as stale (tick / task table / epoch change)");
  obs::Counter& viewer_hits = obs::Registry::global().counter(
      "fs_viewer_cache_hits_total",
      "container-context renders served from a viewer slot");
  obs::Counter& viewer_misses = obs::Registry::global().counter(
      "fs_viewer_cache_misses_total",
      "container-context renders that ran the generator");
  obs::Counter& viewer_invalidations = obs::Registry::global().counter(
      "fs_viewer_cache_invalidations_total",
      "viewer slots discarded as stale (generation / epoch / fingerprint / "
      "mask flip) or evicted");
  obs::Counter& pid_renders = obs::Registry::global().counter(
      "fs_pid_renders_total", "dynamic /proc/<pid>/* renders");
  obs::Counter& reads_denied = obs::Registry::global().counter(
      "fs_reads_denied_total", "reads rejected by the masking policy");

  static FsMetrics& get() {
    static FsMetrics metrics;
    return metrics;
  }
};

// The part of a HardwareSpec that decides which paths exist, and the key of
// the shared file tables. The registration functions below read exactly
// these fields, so two hosts with equal geometry get equal tables.
struct FsGeometry {
  int num_cores = 0;
  int numa_nodes = 1;
  std::size_t cpuidle_states = 0;
  int num_packages = 0;
  bool has_coretemp = false;
  bool has_rapl = false;
  bool has_dram_rapl = false;

  static FsGeometry of(const hw::HardwareSpec& spec) {
    return {.num_cores = spec.num_cores,
            .numa_nodes = std::max(1, spec.numa_nodes),
            .cpuidle_states = spec.cpuidle_states.size(),
            .num_packages = spec.num_packages,
            .has_coretemp = spec.has_coretemp,
            .has_rapl = spec.has_rapl,
            .has_dram_rapl = spec.has_dram_rapl};
  }
  auto operator<=>(const FsGeometry&) const = default;
};

}  // namespace

struct PseudoFs::Registry {
  std::vector<FileEntry> files;  ///< sorted by path

  explicit Registry(const FsGeometry& geometry) {
    register_procfs(geometry);
    register_sysfs(geometry);
    register_telemetry();
  }

  /// The table for `geometry`, built on the first request and shared by
  /// every later one. Tables are never modified once built.
  static std::shared_ptr<const Registry> shared(const FsGeometry& geometry) {
    static std::mutex mu;
    static std::map<FsGeometry, std::shared_ptr<const Registry>> tables;
    std::lock_guard<std::mutex> lock(mu);
    auto& table = tables[geometry];
    if (table == nullptr) table = std::make_shared<const Registry>(geometry);
    return table;
  }

  /// Sorted insert; an existing path gets the new generator (last
  /// registration wins). Returns the file id and whether it was inserted.
  std::pair<std::size_t, bool> register_file(
      std::string path, Generator generator,
      CacheMode mode = CacheMode::kCacheable) {
    auto it = std::lower_bound(
        files.begin(), files.end(), std::string_view(path),
        [](const FileEntry& entry, std::string_view p) {
          return entry.path < p;
        });
    const bool inserted = it == files.end() || it->path != path;
    if (inserted) {
      it = files.insert(it, FileEntry{std::move(path), {}, true});
    }
    it->generator = std::move(generator);
    it->cacheable = mode == CacheMode::kCacheable;
    return {static_cast<std::size_t>(it - files.begin()), inserted};
  }

  void register_procfs(const FsGeometry& geometry);
  void register_sysfs(const FsGeometry& geometry);
  void register_telemetry();
};

PseudoFs::PseudoFs(const kernel::Host& host)
    : host_(&host),
      registry_(Registry::shared(FsGeometry::of(host.spec()))),
      caches_(registry_->files.size()) {}

PseudoFs::~PseudoFs() {
  for (auto& slot : caches_) delete slot.load();
}

void PseudoFs::register_file(std::string path, Generator generator,
                             CacheMode mode) {
  // Copy-on-write: other hosts may share the table, so edit a private copy.
  auto table = std::make_shared<Registry>(*registry_);
  const auto [id, inserted] =
      table->register_file(std::move(path), std::move(generator), mode);
  registry_ = std::move(table);
  if (inserted) {  // shift the cache slots of later files up by one
    std::vector<std::atomic<RenderCache*>> caches(caches_.size() + 1);
    for (std::size_t i = 0; i < caches_.size(); ++i) {
      caches[i < id ? i : i + 1].store(caches_[i].load());
    }
    caches_ = std::move(caches);
  }
  ++render_epoch_;
}

const PseudoFs::FileEntry* PseudoFs::find_entry(std::string_view path) const {
  const auto& files = registry_->files;
  auto it = std::lower_bound(
      files.begin(), files.end(), path,
      [](const FileEntry& entry, std::string_view p) {
        return entry.path < p;
      });
  if (it == files.end() || it->path != path) return nullptr;
  return &*it;
}

PseudoFs::RenderCache& PseudoFs::cache_for(const FileEntry& entry) const {
  auto& slot = caches_[static_cast<std::size_t>(
      &entry - registry_->files.data())];
  RenderCache* cache = slot.load();
  if (cache != nullptr) return *cache;
  // First cached read of this file. Concurrent first readers each build a
  // cache; one install wins and the losers free theirs.
  auto fresh = std::make_unique<RenderCache>();
  if (slot.compare_exchange_strong(cache, fresh.get())) {
    return *fresh.release();
  }
  return *cache;
}

std::vector<std::string> PseudoFs::list_paths() const {
  std::vector<std::string> paths;
  paths.reserve(registry_->files.size());
  for (const auto& entry : registry_->files) paths.push_back(entry.path);
  return paths;  // the table is kept sorted
}

std::vector<std::string> PseudoFs::list_paths(const ViewContext& ctx) const {
  std::vector<std::string> paths = list_paths();
  const auto& viewer_pid_ns =
      ctx.viewer != nullptr ? ctx.viewer->ns.pid : host_->init_ns().pid;
  const bool init_view = viewer_pid_ns == host_->init_ns().pid;
  for (const auto& task : host_->tasks()) {
    // PID namespaces are hierarchical: the init namespace sees *every*
    // task under its host pid; a container namespace sees only its own.
    if (!init_view && task->ns.pid != viewer_pid_ns) continue;
    const int pid = init_view ? task->host_pid : task->ns_pid;
    for (const char* leaf : {"status", "stat", "cmdline", "sched"}) {
      paths.push_back(strformat("/proc/%d/%s", pid, leaf));
    }
  }
  return paths;
}

std::optional<PseudoFs::PidPath> PseudoFs::resolve_pid_path(
    std::string_view path, const ViewContext& ctx) const {
  if (!starts_with(path, "/proc/")) return std::nullopt;
  const std::string_view tail = path.substr(6);
  const std::size_t slash = tail.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const std::string_view pid_text = tail.substr(0, slash);
  if (pid_text.empty() ||
      pid_text.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::nullopt;
  }
  PidPath resolved;
  resolved.leaf = tail.substr(slash + 1);
  if (resolved.leaf != "status" && resolved.leaf != "stat" &&
      resolved.leaf != "cmdline" && resolved.leaf != "sched") {
    return std::nullopt;
  }
  // Linux's name_to_int (fs/proc/util.c): a multi-digit name with a
  // leading zero, or a value past INT_MAX, names no pid at all.
  if (pid_text.size() > 1 && pid_text.front() == '0') return resolved;
  long long value = 0;
  for (const char digit : pid_text) {
    value = value * 10 + (digit - '0');
    if (value > std::numeric_limits<int>::max()) return resolved;
  }
  const int pid = static_cast<int>(value);
  // Pid lookup happens inside the viewer's PID namespace. PID namespaces
  // are hierarchical: the init namespace resolves *every* task (container
  // tasks included) by host pid; a container namespace resolves only its
  // own tasks by ns pid.
  const auto& viewer_pid_ns =
      ctx.viewer != nullptr ? ctx.viewer->ns.pid : host_->init_ns().pid;
  const bool init_view = viewer_pid_ns == host_->init_ns().pid;
  for (const auto& task : host_->tasks()) {
    if (!init_view && task->ns.pid != viewer_pid_ns) continue;
    const int visible_pid = init_view ? task->host_pid : task->ns_pid;
    if (visible_pid == pid) {
      resolved.task = task.get();
      return resolved;
    }
  }
  return resolved;  // valid shape, pid not visible => ENOENT
}

Result<std::string> PseudoFs::read(std::string_view path,
                                   const ViewContext& ctx) const {
  std::string out;
  const StatusCode code = read_into(path, ctx, out);
  if (code != StatusCode::kOk) return {code, std::string(path)};
  return out;
}

StatusCode PseudoFs::read_into(std::string_view path, const ViewContext& ctx,
                               std::string& out) const {
  out.clear();
  RenderContext render_ctx{*host_, ctx.viewer, false, rapl_provider_};
  if (ctx.is_container() && ctx.policy != nullptr) {
    switch (ctx.policy->evaluate(path)) {
      case MaskAction::kDeny:
        FsMetrics::get().reads_denied.inc();
        return StatusCode::kPermissionDenied;
      case MaskAction::kRestrict:
        render_ctx.restricted = true;
        break;
      case MaskAction::kAllow:
        break;
    }
  }
  // Injected faults fire only for container-context reads of *existing*
  // paths (existence is checked first so kNotFound/kAbsent classification
  // never depends on the fault schedule). The injector's verdict is a pure
  // function of (path, sim time): safe under concurrent scan workers.
  const auto injected_fault = [&]() -> StatusCode {
    if (fault_injector_ == nullptr || !ctx.is_container()) {
      return StatusCode::kOk;
    }
    return fault_injector_->read_fault(path, host_->now());
  };
  if (const auto pid_path = resolve_pid_path(path, ctx)) {
    if (pid_path->task == nullptr) {
      return StatusCode::kNotFound;
    }
    if (const StatusCode fault = injected_fault(); fault != StatusCode::kOk) {
      return fault;
    }
    FsMetrics::get().pid_renders.inc();
    render::pid_file(render_ctx, *pid_path->task, pid_path->leaf, out);
    return StatusCode::kOk;
  }
  const FileEntry* entry = find_entry(path);
  if (entry == nullptr) {
    return StatusCode::kNotFound;
  }
  if (const StatusCode fault = injected_fault(); fault != StatusCode::kOk) {
    return fault;
  }
  // Host-context renders (no viewer, no restriction) depend only on host
  // state, so their bytes are served from the per-tick cache. Container
  // renders are memoized per viewer in the same cache's viewer slots —
  // unless the path is covered by a fault rule, in which case every read
  // must reach the injector's sim-time-windowed draw (the fault above fired
  // *this* read; the next one re-draws). kUncacheable files always render
  // (their generators read state the host generation doesn't track).
  if (entry->cacheable) {
    if (render_ctx.viewer == nullptr && !render_ctx.restricted) {
      return read_host_cached(*entry, render_ctx, out);
    }
    if (ctx.is_container() && ctx.viewer->ns.pid != nullptr &&
        (fault_injector_ == nullptr || !fault_injector_->covers(path))) {
      return read_viewer_cached(*entry, render_ctx, out);
    }
  }
  entry->generator(render_ctx, out);
  return StatusCode::kOk;
}

StatusCode PseudoFs::read_host_cached(const FileEntry& entry,
                                      const RenderContext& render_ctx,
                                      std::string& out) const {
  auto& metrics = FsMetrics::get();
  RenderCache& cache = cache_for(entry);
  const std::uint64_t generation = host_->state_generation();
  const auto fresh = [&] {
    return cache.valid && cache.host_generation == generation &&
           cache.render_epoch == render_epoch_;
  };
  {
    std::shared_lock<std::shared_mutex> lock(cache.mu);
    if (fresh()) {
      metrics.cache_hits.inc();
      out.append(cache.bytes);
      return StatusCode::kOk;
    }
  }
  std::unique_lock<std::shared_mutex> lock(cache.mu);
  if (fresh()) {  // a racer filled between the lock upgrade: count a hit
    metrics.cache_hits.inc();
  } else {
    if (cache.valid) metrics.cache_invalidations.inc();
    metrics.cache_misses.inc();
    cache.bytes.clear();
    entry.generator(render_ctx, cache.bytes);
    cache.host_generation = generation;
    cache.render_epoch = render_epoch_;
    cache.valid = true;
  }
  out.append(cache.bytes);
  return StatusCode::kOk;
}

StatusCode PseudoFs::read_viewer_cached(const FileEntry& entry,
                                        const RenderContext& render_ctx,
                                        std::string& out) const {
  auto& metrics = FsMetrics::get();
  RenderCache& cache = cache_for(entry);
  const std::uint64_t key = render_ctx.viewer->ns.pid->id;
  const std::uint64_t generation = host_->state_generation();
  const std::uint64_t fingerprint =
      viewer_state_fingerprint(*render_ctx.viewer);
  const auto fresh = [&](const ViewerSlot& slot) {
    return slot.valid && slot.host_generation == generation &&
           slot.render_epoch == render_epoch_ &&
           slot.view_fingerprint == fingerprint &&
           slot.restricted == render_ctx.restricted;
  };
  {
    std::shared_lock<std::shared_mutex> lock(cache.mu);
    for (const ViewerSlot& slot : cache.viewers) {
      if (slot.viewer_key != key) continue;
      if (fresh(slot)) {
        metrics.viewer_hits.inc();
        out.append(slot.bytes);
        return StatusCode::kOk;
      }
      break;
    }
  }
  std::unique_lock<std::shared_mutex> lock(cache.mu);
  ViewerSlot* slot = nullptr;
  for (ViewerSlot& candidate : cache.viewers) {
    if (candidate.viewer_key == key) {
      slot = &candidate;
      break;
    }
  }
  if (slot != nullptr && fresh(*slot)) {
    // A racer filled between the lock upgrade: a (key, generation) fill
    // happens exactly once, so hit/miss totals stay race-independent.
    metrics.viewer_hits.inc();
    out.append(slot->bytes);
    return StatusCode::kOk;
  }
  if (slot == nullptr) {
    if (cache.viewers.size() < kMaxViewerSlots) {
      slot = &cache.viewers.emplace_back();
      slot->viewer_key = key;
    } else {
      // Deterministic eviction: PID-namespace ids are monotonic, so the
      // smallest resident key is the oldest incarnation. An incoming key
      // smaller than every resident renders uncached — either way the
      // resident set converges to the same top-N newest incarnations
      // regardless of read interleaving.
      ViewerSlot* oldest = &cache.viewers.front();
      for (ViewerSlot& candidate : cache.viewers) {
        if (candidate.viewer_key < oldest->viewer_key) oldest = &candidate;
      }
      if (oldest->viewer_key > key) {
        metrics.viewer_misses.inc();
        entry.generator(render_ctx, out);
        return StatusCode::kOk;
      }
      metrics.viewer_invalidations.inc();
      *oldest = ViewerSlot{};
      oldest->viewer_key = key;
      slot = oldest;
    }
  } else if (slot->valid) {
    metrics.viewer_invalidations.inc();  // stale bytes being replaced
  }
  metrics.viewer_misses.inc();
  slot->bytes.clear();
  entry.generator(render_ctx, slot->bytes);
  slot->host_generation = generation;
  slot->render_epoch = render_epoch_;
  slot->view_fingerprint = fingerprint;
  slot->restricted = render_ctx.restricted;
  slot->valid = true;
  out.append(slot->bytes);
  return StatusCode::kOk;
}

bool PseudoFs::cache_eligible(std::string_view path) const {
  const FileEntry* entry = find_entry(path);
  if (entry == nullptr || !entry->cacheable) return false;
  return fault_injector_ == nullptr || !fault_injector_->covers(path);
}

void PseudoFs::drop_viewer_entries(std::uint64_t viewer_pid_ns) const {
  for (const auto& slot : caches_) {
    RenderCache* allocated = slot.load();
    if (allocated == nullptr) continue;  // never read: holds no slots
    RenderCache& cache = *allocated;
    std::unique_lock<std::shared_mutex> lock(cache.mu);
    auto& slots = cache.viewers;
    slots.erase(std::remove_if(slots.begin(), slots.end(),
                               [&](const ViewerSlot& slot) {
                                 return slot.viewer_key == viewer_pid_ns;
                               }),
                slots.end());
  }
}

std::uint64_t PseudoFs::viewer_state_fingerprint(const kernel::Task& viewer) {
  Fnv64 h;
  const kernel::NamespaceSet& ns = viewer.ns;
  h.add_u64(ns.pid != nullptr ? ns.pid->id : 0);
  h.add_u64(ns.uts != nullptr ? ns.uts->id : 0);
  h.add_u64(ns.net != nullptr ? ns.net->id : 0);
  h.add_u64(ns.ipc != nullptr ? ns.ipc->id : 0);
  h.add_u64(ns.mnt != nullptr ? ns.mnt->id : 0);
  h.add_u64(ns.user != nullptr ? ns.user->id : 0);
  h.add_u64(ns.cgroup != nullptr ? ns.cgroup->id : 0);
  h.add_u64(static_cast<std::uint64_t>(viewer.host_pid));
  h.add_u64(static_cast<std::uint64_t>(viewer.start_time));
  if (viewer.cgroup != nullptr) {
    const kernel::Cgroup& cg = *viewer.cgroup;
    h.add_string(cg.path());
    h.add_u64(cg.memory.limit_bytes);
    h.add_u64(cg.memory.usage_bytes);
    h.add_double(cg.cpu_quota);
    h.add_u64(cg.cpuset.cpus.size());
    for (int cpu : cg.cpuset.cpus) {
      h.add_u64(static_cast<std::uint64_t>(cpu));
    }
    h.add_u64(cg.net_prio.ifpriomap.size());
    for (const auto& [device, priority] : cg.net_prio.ifpriomap) {
      h.add_string(device);
      h.add_u64(static_cast<std::uint64_t>(priority));
    }
  }
  return h.hash;
}

void PseudoFs::Registry::register_procfs(const FsGeometry& geometry) {
  using namespace render;
  register_file("/proc/uptime", uptime);
  register_file("/proc/version", version);
  register_file("/proc/stat", stat);
  register_file("/proc/meminfo", meminfo);
  register_file("/proc/loadavg", loadavg);
  register_file("/proc/interrupts", interrupts);
  register_file("/proc/softirqs", softirqs);
  register_file("/proc/cpuinfo", cpuinfo);
  register_file("/proc/schedstat", schedstat);
  register_file("/proc/zoneinfo", zoneinfo);
  register_file("/proc/locks", locks);
  register_file("/proc/timer_list", timer_list);
  register_file("/proc/sched_debug", sched_debug);
  register_file("/proc/modules", modules);
  register_file("/proc/sys/kernel/random/boot_id", boot_id);
  register_file("/proc/sys/kernel/random/entropy_avail", entropy_avail);
  register_file("/proc/sys/kernel/random/poolsize", random_poolsize);
  register_file("/proc/sys/fs/file-nr", fs_file_nr);
  register_file("/proc/sys/fs/inode-nr", fs_inode_nr);
  register_file("/proc/sys/fs/dentry-state", fs_dentry_state);
  register_file("/proc/fs/ext4/sda1/mb_groups", ext4_mb_groups);
  for (int cpu = 0; cpu < geometry.num_cores; ++cpu) {
    for (int domain = 0; domain < 2; ++domain) {
      register_file(
          strformat("/proc/sys/kernel/sched_domain/cpu%d/domain%d/"
                    "max_newidle_lb_cost",
                    cpu, domain),
          [cpu, domain](const RenderContext& ctx, std::string& out) {
            max_newidle_lb_cost(ctx, cpu, domain, out);
          });
    }
  }
  // Properly namespaced files: contrast cases the detector must classify
  // as isolated, not leaking.
  register_file("/proc/self/cgroup", self_cgroup);
  register_file("/proc/sys/kernel/hostname", sys_hostname);
  register_file("/proc/net/dev", net_dev);
  register_file("/proc/self/status", self_status);
}

void PseudoFs::Registry::register_sysfs(const FsGeometry& geometry) {
  using namespace render;

  register_file("/sys/fs/cgroup/net_prio/net_prio.ifpriomap", ifpriomap);

  for (int node = 0; node < geometry.numa_nodes; ++node) {
    register_file(strformat("/sys/devices/system/node/node%d/numastat", node),
                  [node](const RenderContext& ctx, std::string& out) {
                    numastat(ctx, node, out);
                  });
    register_file(strformat("/sys/devices/system/node/node%d/vmstat", node),
                  [node](const RenderContext& ctx, std::string& out) {
                    node_vmstat(ctx, node, out);
                  });
    register_file(strformat("/sys/devices/system/node/node%d/meminfo", node),
                  [node](const RenderContext& ctx, std::string& out) {
                    node_meminfo(ctx, node, out);
                  });
  }

  const int idle_states = static_cast<int>(geometry.cpuidle_states);
  for (int cpu = 0; cpu < geometry.num_cores; ++cpu) {
    for (int state = 0; state < idle_states; ++state) {
      const std::string base =
          strformat("/sys/devices/system/cpu/cpu%d/cpuidle/state%d", cpu, state);
      register_file(base + "/name",
                    [cpu, state](const RenderContext& ctx, std::string& out) {
                      cpuidle_name(ctx, cpu, state, out);
                    });
      register_file(base + "/usage",
                    [cpu, state](const RenderContext& ctx, std::string& out) {
                      cpuidle_usage(ctx, cpu, state, out);
                    });
      register_file(base + "/time",
                    [cpu, state](const RenderContext& ctx, std::string& out) {
                      cpuidle_time(ctx, cpu, state, out);
                    });
    }
  }

  if (geometry.has_coretemp) {
    // Sensor 1 = package, sensors 2..N+1 = per core.
    for (int sensor = 1; sensor <= geometry.num_cores + 1; ++sensor) {
      register_file(
          strformat(
              "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp%d_input",
              sensor),
          [sensor](const RenderContext& ctx, std::string& out) {
            coretemp_input(ctx, sensor, out);
          });
    }
  }

  if (geometry.has_rapl) {
    for (int pkg = 0; pkg < geometry.num_packages; ++pkg) {
      const std::string pkg_base =
          strformat("/sys/class/powercap/intel-rapl:%d", pkg);
      register_file(pkg_base + "/name",
                    [pkg](const RenderContext& ctx, std::string& out) {
                      rapl_domain_name(ctx, pkg, hw::RaplDomainKind::kPackage,
                                       out);
                    });
      register_file(pkg_base + "/energy_uj",
                    [pkg](const RenderContext& ctx, std::string& out) {
                      rapl_energy_uj(ctx, pkg, hw::RaplDomainKind::kPackage,
                                     out);
                    });
      register_file(pkg_base + "/max_energy_range_uj",
                    [pkg](const RenderContext& ctx, std::string& out) {
                      rapl_max_energy_range_uj(
                          ctx, pkg, hw::RaplDomainKind::kPackage, out);
                    });
      // Subdomain 0: core (PP0); subdomain 1: dram.
      struct SubDomain {
        int index;
        hw::RaplDomainKind kind;
      };
      std::vector<SubDomain> subdomains = {{0, hw::RaplDomainKind::kCore}};
      if (geometry.has_dram_rapl) {
        subdomains.push_back({1, hw::RaplDomainKind::kDram});
      }
      for (const auto& sub : subdomains) {
        const std::string sub_base =
            strformat("%s/intel-rapl:%d:%d", pkg_base.c_str(), pkg, sub.index);
        const auto kind = sub.kind;
        register_file(sub_base + "/name",
                      [pkg, kind](const RenderContext& ctx, std::string& out) {
                        rapl_domain_name(ctx, pkg, kind, out);
                      });
        register_file(sub_base + "/energy_uj",
                      [pkg, kind](const RenderContext& ctx, std::string& out) {
                        rapl_energy_uj(ctx, pkg, kind, out);
                      });
        register_file(sub_base + "/max_energy_range_uj",
                      [pkg, kind](const RenderContext& ctx, std::string& out) {
                        rapl_max_energy_range_uj(ctx, pkg, kind, out);
                      });
      }
    }
  }
}

void PseudoFs::Registry::register_telemetry() {
  // The simulator's own telemetry, exposed the way the paper says kernel
  // telemetry *should* be exposed: the host context reads the full
  // Prometheus-rendered registry, a containerized (or restricted) viewer
  // gets a tenant-scoped stub that carries no host-coupled numbers. The
  // container view is byte-stable under host load, so CrossValidator::scan
  // classifies the file NAMESPACED — the contrast case to Table I.
  //
  // kUncacheable: the registry mutates without bumping the host state
  // generation, so memoized bytes would go stale. The render itself must
  // not touch any counter (see FsMetrics) or two quiescent reads would
  // disagree.
  register_file(
      "/proc/containerleaks",
      [](const RenderContext& ctx, std::string& out) {
        if (ctx.viewer == nullptr && !ctx.restricted) {
          out += "# cleaks telemetry: host view\n";
          out += obs::to_prometheus(obs::Registry::global().snapshot());
          return;
        }
        // Tenant-scoped view: identity only, never host metrics.
        out += "# cleaks telemetry: namespaced view\n";
        out += "# container: ";
        out += ctx.viewer != nullptr ? ctx.viewer->container_id : "unknown";
        out += "\n# host metrics are not visible from this namespace\n";
      },
      CacheMode::kUncacheable);
}

}  // namespace cleaks::fs
