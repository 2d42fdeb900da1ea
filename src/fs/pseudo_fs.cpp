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
#include "util/strings.h"

namespace cleaks::fs {
namespace {

// Pseudo-fs telemetry. Every value counts reads/renders that the simulation
// performs deterministically (the same set of reads happens at every thread
// count), so these stay Scope::kSim.
//
// The six fs_{render,viewer}_cache_* counters keep their names because
// perfbench reads them, though the pseudo-fs memoizes nothing: a "miss" is
// a render of a cacheable file (see read_into), and hits and invalidations
// stay registered at 0.
//
// Invariant: none of these counters fire on an *uncacheable* static-path
// render — /proc/containerleaks renders the registry that contains them,
// and a read that bumped a counter appearing in its own output would never
// produce the same bytes twice (RenderCache.ReadIntoMatchesRead pins
// exactly that stability).
struct FsMetrics {
  obs::Counter& cache_hits = obs::Registry::global().counter(
      "fs_render_cache_hits_total",
      "always 0: the pseudo-fs memoizes nothing");
  obs::Counter& cache_misses = obs::Registry::global().counter(
      "fs_render_cache_misses_total",
      "host-context renders of cacheable files");
  obs::Counter& cache_invalidations = obs::Registry::global().counter(
      "fs_render_cache_invalidations_total",
      "always 0: the pseudo-fs memoizes nothing");
  obs::Counter& viewer_hits = obs::Registry::global().counter(
      "fs_viewer_cache_hits_total",
      "always 0: the pseudo-fs memoizes nothing");
  obs::Counter& viewer_misses = obs::Registry::global().counter(
      "fs_viewer_cache_misses_total",
      "container-context renders of cacheable files");
  obs::Counter& viewer_invalidations = obs::Registry::global().counter(
      "fs_viewer_cache_invalidations_total",
      "always 0: the pseudo-fs memoizes nothing");
  obs::Counter& pid_renders = obs::Registry::global().counter(
      "fs_pid_renders_total", "dynamic /proc/<pid>/* renders");
  obs::Counter& reads_denied = obs::Registry::global().counter(
      "fs_reads_denied_total", "reads rejected by the masking policy");

  static FsMetrics& get() {
    static FsMetrics metrics;
    return metrics;
  }
};

// Whether renders of a file count toward the fs_*_cache_misses_total
// counters. Every file is kCacheable except /proc/containerleaks, which
// prints those counters: if rendering it bumped them, two reads of it at
// one instant would differ (RenderCache.ReadIntoMatchesRead reads every
// path twice and needs equal bytes).
enum class CacheMode { kCacheable, kUncacheable };

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
  /// registration wins).
  void register_file(std::string path, Generator generator,
                     CacheMode mode = CacheMode::kCacheable) {
    auto it = std::lower_bound(
        files.begin(), files.end(), std::string_view(path),
        [](const FileEntry& entry, std::string_view p) {
          return entry.path < p;
        });
    if (it == files.end() || it->path != path) {
      it = files.insert(it, FileEntry{std::move(path), {}, true});
    }
    it->generator = std::move(generator);
    it->cacheable = mode == CacheMode::kCacheable;
  }

  void register_procfs(const FsGeometry& geometry);
  void register_sysfs(const FsGeometry& geometry);
  void register_telemetry();
};

PseudoFs::PseudoFs(const kernel::Host& host)
    : host_(&host), registry_(Registry::shared(FsGeometry::of(host.spec()))) {}

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
  // Count renders of cacheable files as cache "misses" (see FsMetrics):
  // host-context reads, and container reads by a PID-namespaced viewer.
  if (entry->cacheable) {
    if (render_ctx.viewer == nullptr) {
      FsMetrics::get().cache_misses.inc();
    } else if (ctx.is_container() && ctx.viewer->ns.pid != nullptr) {
      FsMetrics::get().viewer_misses.inc();
    }
  }
  entry->generator(render_ctx, out);
  return StatusCode::kOk;
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
  // kUncacheable: the render must not touch any counter (see FsMetrics) or
  // two quiescent reads would disagree.
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
