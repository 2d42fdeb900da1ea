// PseudoFs: the memory-based pseudo file systems (procfs + sysfs) of one
// simulated host, as mounted into every container by the runtime.
//
// Each registered path has a pure generator over (host state, render
// context). Reads evaluate the masking policy first, so a read returns one
// of: content (possibly tenant-scoped), kPermissionDenied (masked), or
// kNotFound. The leakage detector walks list_paths() and diffs the two
// contexts exactly like the tool in Fig 1.
//
// Performance notes (the scanner renders hundreds of paths per pass):
//  * the file table depends only on hardware geometry (core, NUMA-node,
//    cpuidle-state and package counts plus the RAPL/coretemp flags), so it
//    is built once per geometry, sorted, and shared read-only by every host
//    of that geometry; lookups binary-search it by std::string_view (no
//    per-lookup key allocation);
//  * generators append into a caller-provided buffer (read_into), so a
//    scanning worker reuses one buffer for its whole path range;
//  * host-context renders are memoized in a per-file cache tagged with the
//    host's state generation — the cache invalidates itself whenever the
//    host ticks forward or its task table changes. A host allocates a
//    file's cache on that file's first cached read, so a parked server that
//    is never read holds no caches at all;
//  * container-context renders are memoized per viewer in the same cache,
//    keyed by (viewer PID-namespace id, host generation, render epoch,
//    viewer-state fingerprint, restricted flag). The PID-namespace id is
//    incarnation-unique (the registry hands out monotonic ids), so a
//    destroyed-and-recreated container can never read its predecessor's
//    bytes even when the runtime reuses the container id string. Paths
//    covered by an active FaultPlan rule bypass this cache entirely —
//    fault draws are keyed by sim-time window and must happen per read.
//
// Concurrency: reads are const and generators are pure, so any number of
// threads may read concurrently *while the host is quiescent* (nobody is
// calling Host::advance/spawn_task/etc.). The render cache is internally
// locked per file (shared lock on the hit path, exclusive only to fill) and
// installed with a compare-exchange on first use; everything else is
// read-only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fs/masking.h"
#include "fs/view.h"
#include "util/result.h"

namespace cleaks::faults {
class FaultInjector;
}  // namespace cleaks::faults

namespace cleaks::fs {

/// Generators append the file's bytes to `out` (never clear or replace it).
using Generator =
    std::function<void(const RenderContext&, std::string& out)>;

/// Whether host-context renders of a file may be memoized. Almost every
/// pseudo file depends only on host state and is kCacheable; files whose
/// bytes change without a host generation bump (e.g. /proc/containerleaks,
/// which renders the live metrics registry) must be kUncacheable or the
/// cache would serve stale telemetry.
enum class CacheMode { kCacheable, kUncacheable };

class PseudoFs {
 public:
  /// Mounts the full procfs + sysfs tree for `host`. The host must outlive
  /// the PseudoFs. Hardware-dependent subtrees (RAPL, coretemp) are only
  /// registered when the spec provides the hardware.
  explicit PseudoFs(const kernel::Host& host);
  ~PseudoFs();

  PseudoFs(const PseudoFs&) = delete;
  PseudoFs& operator=(const PseudoFs&) = delete;

  /// All registered static paths, sorted. (Path *existence* does not depend
  /// on the viewer; DENY shows up at read time, as with AppArmor.)
  [[nodiscard]] std::vector<std::string> list_paths() const;

  /// Static paths plus the per-process /proc/<pid>/ entries visible in
  /// `ctx` — pids are the *viewer's PID-namespace* pids, so a container
  /// only ever lists its own processes (the properly namespaced part of
  /// procfs, in contrast with the Table I channels).
  [[nodiscard]] std::vector<std::string> list_paths(const ViewContext& ctx) const;

  /// Read `path` in `ctx`. Handles both registered static paths and the
  /// dynamic /proc/<pid>/{status,stat,cmdline,sched} files.
  [[nodiscard]] Result<std::string> read(std::string_view path,
                                         const ViewContext& ctx) const;

  /// Allocation-free read fast path: renders `path` into `out` (replacing
  /// its contents) and returns the status. Callers on scanning hot loops
  /// keep one buffer per worker and pass it to every read.
  StatusCode read_into(std::string_view path, const ViewContext& ctx,
                       std::string& out) const;

  /// Install/remove the defense's RAPL view provider (power-based
  /// namespace). Null restores the stock leaking behaviour.
  void set_rapl_provider(const RaplViewProvider* provider) noexcept {
    rapl_provider_ = provider;
    ++render_epoch_;  // provider changes what renders, drop cached bytes
  }
  [[nodiscard]] const RaplViewProvider* rapl_provider() const noexcept {
    return rapl_provider_;
  }

  /// Install/remove the scenario's fault injector. Only *container*
  /// context reads are faulted — the host context is the simulator's
  /// ground truth (and the scanner's reference side), exactly as a
  /// tenant-facing EBUSY never rewrites the kernel's own state. Faults
  /// never affect path existence, so kNotFound classification is stable.
  void set_fault_injector(const faults::FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const noexcept {
    return fault_injector_;
  }

  [[nodiscard]] const kernel::Host& host() const noexcept { return *host_; }

  /// Register an extra path (used by tests to model future channels).
  /// Replaces the generator when the path already exists. The change is
  /// private to this host: it edits a copy of the shared file table.
  void register_file(std::string path, Generator generator,
                     CacheMode mode = CacheMode::kCacheable);

  /// Monotonic epoch over everything renders depend on besides host state
  /// and the viewer: the registered generators, the RAPL view provider and
  /// the masking policy. Cached bytes are valid for one (generation, epoch)
  /// pair; incremental consumers (CrossValidator) key their own caches on
  /// it too.
  [[nodiscard]] std::uint64_t render_epoch() const noexcept {
    return render_epoch_;
  }

  /// Drop every cached render, host- and viewer-side. The container
  /// runtime calls this on stage-1 mask/unmask (set_policy): the policy
  /// decides which renders are restricted, so cached bytes predating the
  /// flip must never be served after it.
  void bump_render_epoch() noexcept { ++render_epoch_; }

  /// True when reads of `path` may legally be served from the render
  /// caches: a registered kCacheable static path that no rule of the
  /// installed fault plan covers. Incremental scanners use the same
  /// predicate to decide which classifications may be reused.
  [[nodiscard]] bool cache_eligible(std::string_view path) const;

  /// Drop the viewer-cache slots belonging to `viewer_pid_ns` (a viewer's
  /// PID-namespace id). Called by the runtime on container destroy — the
  /// monotonic ids make stale hits impossible anyway, so this is memory
  /// hygiene, not correctness.
  void drop_viewer_entries(std::uint64_t viewer_pid_ns) const;

  /// FNV-1a fingerprint over the viewer-visible mutable state that the
  /// host generation does *not* track: namespace identities and the
  /// viewer's cgroup configuration (cpuset, memory limit/usage, cpu quota,
  /// net_prio map). Restricted renders read exactly this state, so a
  /// cgroup knob turned between two reads changes the fingerprint and
  /// invalidates the cached bytes.
  [[nodiscard]] static std::uint64_t viewer_state_fingerprint(
      const kernel::Task& viewer);

 private:
  /// One memoized container-context render. `viewer_key` is the viewer's
  /// PID-namespace id — unique per container incarnation.
  struct ViewerSlot {
    std::uint64_t viewer_key = 0;
    std::uint64_t host_generation = 0;
    std::uint64_t render_epoch = 0;
    std::uint64_t view_fingerprint = 0;
    bool restricted = false;
    bool valid = false;
    std::string bytes;
  };

  /// Memoized renders for one file: the host-context slot, valid for one
  /// (host generation, render epoch) pair — i.e. until the next tick /
  /// task-table change / provider swap — plus up to kMaxViewerSlots
  /// container-context slots. Allocated on the file's first cached read
  /// (see cache_for). The shared_mutex serves hits under a reader lock;
  /// fills upgrade to the writer lock and re-check, so a racing fill is
  /// counted as exactly one miss no matter who wins.
  struct RenderCache {
    mutable std::shared_mutex mu;
    std::uint64_t host_generation = 0;
    std::uint64_t render_epoch = 0;
    bool valid = false;
    std::string bytes;
    std::vector<ViewerSlot> viewers;
  };

  /// Viewer slots kept per file. Eviction is deterministic: the smallest
  /// resident key is evicted, and an incoming key smaller than every
  /// resident is rendered uncached — so the resident set converges to the
  /// top-N newest incarnations regardless of read interleaving.
  static constexpr std::size_t kMaxViewerSlots = 16;

  struct FileEntry {
    std::string path;
    Generator generator;
    bool cacheable = true;
  };

  /// A sorted, immutable file table, shared by every host whose hardware
  /// has the same geometry (defined in pseudo_fs.cpp). A file's id is its
  /// index in the table.
  struct Registry;

  [[nodiscard]] const FileEntry* find_entry(std::string_view path) const;

  /// The render cache of `entry`, allocated and installed on first use.
  RenderCache& cache_for(const FileEntry& entry) const;

  /// Serve a host-context render from the per-file cache (fill on miss).
  StatusCode read_host_cached(const FileEntry& entry,
                              const RenderContext& render_ctx,
                              std::string& out) const;
  /// Serve a container-context render from the viewer slots (fill on miss).
  StatusCode read_viewer_cached(const FileEntry& entry,
                                const RenderContext& render_ctx,
                                std::string& out) const;

  /// Resolve "/proc/<pid>/<leaf>" under the viewer's PID namespace;
  /// returns nullopt when `path` is not a per-process path at all.
  struct PidPath {
    const kernel::Task* task = nullptr;  ///< nullptr = pid not visible
    std::string_view leaf;
  };
  [[nodiscard]] std::optional<PidPath> resolve_pid_path(
      std::string_view path, const ViewContext& ctx) const;

  const kernel::Host* host_;
  const RaplViewProvider* rapl_provider_ = nullptr;
  const faults::FaultInjector* fault_injector_ = nullptr;
  std::uint64_t render_epoch_ = 0;
  std::shared_ptr<const Registry> registry_;
  /// One slot per file id; null until that file's first cached read.
  mutable std::vector<std::atomic<RenderCache*>> caches_;
};

}  // namespace cleaks::fs
