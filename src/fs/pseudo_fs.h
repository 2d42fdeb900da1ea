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
//  * nothing is memoized: every read runs its generator straight into the
//    caller's buffer, and every CrossValidator scan renders every path it
//    classifies.
//
// Concurrency: reads are const, generators are pure and a PseudoFs keeps
// no per-read state, so any number of threads may read concurrently *while
// the host is quiescent* (nobody is calling Host::advance/spawn_task/etc.).
// The read path takes no lock; the one stateful render input, the power
// namespace's RAPL view provider, serializes its own lazy refresh.
#pragma once

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
  }
  [[nodiscard]] const RaplViewProvider* rapl_provider() const noexcept {
    return rapl_provider_;
  }

  /// Install/remove a fault injector, which must stay alive while reads
  /// can reach it. Only *container* context reads are faulted — the
  /// host context is the simulator's ground truth (and the scanner's
  /// reference side), exactly as a tenant-facing EBUSY never rewrites the
  /// kernel's own state. Faults never affect path existence, so kNotFound
  /// classification is stable.
  void set_fault_injector(const faults::FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }

  [[nodiscard]] const kernel::Host& host() const noexcept { return *host_; }

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
  std::shared_ptr<const Registry> registry_;
};

}  // namespace cleaks::fs
