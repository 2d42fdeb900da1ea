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
//  * nothing is memoized here: every read runs its generator straight into
//    the caller's buffer. Reuse happens one level up, in CrossValidator,
//    which skips the renders of cache_eligible() paths while the host
//    state generation, the render epoch and the probe's
//    viewer_state_fingerprint() all stand still. A per-file memo keyed on
//    the host generation cannot pay, since every tick bumps it.
//
// Concurrency: reads are const, generators are pure and a PseudoFs keeps
// no per-read state, so any number of threads may read concurrently *while
// the host is quiescent* (nobody is calling Host::advance/spawn_task/etc.).
// The read path takes no lock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

/// Whether a file's renders may be reused while the host state generation,
/// the render epoch and the viewer-state fingerprint stand still. Almost
/// every pseudo file depends only on that state and is kCacheable; files
/// whose bytes change without a generation bump (e.g. /proc/containerleaks,
/// which renders the live metrics registry) must be kUncacheable, or a warm
/// scan would reuse a classification made from stale telemetry.
enum class CacheMode { kCacheable, kUncacheable };

class PseudoFs {
 public:
  /// Mounts the full procfs + sysfs tree for `host`. The host must outlive
  /// the PseudoFs. Hardware-dependent subtrees (RAPL, coretemp) are only
  /// registered when the spec provides the hardware.
  explicit PseudoFs(const kernel::Host& host);

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
    ++render_epoch_;  // the provider changes what renders
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
  /// Replaces the generator when the path already exists, and bumps the
  /// render epoch. The change is private to this host: it edits a copy of
  /// the shared file table.
  void register_file(std::string path, Generator generator,
                     CacheMode mode = CacheMode::kCacheable);

  /// Monotonic epoch over everything renders depend on besides host state
  /// and the viewer: the registered generators, the RAPL view provider and
  /// the masking policy. Incremental consumers (CrossValidator) key their
  /// reuse on it together with the host state generation.
  [[nodiscard]] std::uint64_t render_epoch() const noexcept {
    return render_epoch_;
  }

  /// Mark every earlier render stale. The container runtime calls this on
  /// stage-1 mask/unmask (set_policy): the policy decides which renders are
  /// restricted, so no reuse may carry bytes across the flip.
  void bump_render_epoch() noexcept { ++render_epoch_; }

  /// True when renders of `path` may be reused while the reuse key
  /// (generation, epoch, fingerprint) stands still: a registered kCacheable
  /// static path that no rule of the installed fault plan covers.
  /// CrossValidator uses it to decide which classifications an
  /// unchanged-world rescan may reuse.
  [[nodiscard]] bool cache_eligible(std::string_view path) const;

  /// FNV-1a fingerprint over the viewer-visible mutable state that the
  /// host generation does *not* track: namespace identities and the
  /// viewer's cgroup configuration (cpuset, memory limit/usage, cpu quota,
  /// net_prio map). Restricted renders read exactly this state, so a
  /// cgroup knob turned between two scans changes the fingerprint and ends
  /// CrossValidator's reuse of the probe's classifications.
  [[nodiscard]] static std::uint64_t viewer_state_fingerprint(
      const kernel::Task& viewer);

 private:
  struct FileEntry {
    std::string path;
    Generator generator;
    bool cacheable = true;
  };

  /// A sorted, immutable file table, shared by every host whose hardware
  /// has the same geometry (defined in pseudo_fs.cpp).
  struct Registry;

  [[nodiscard]] const FileEntry* find_entry(std::string_view path) const;

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
};

}  // namespace cleaks::fs
