// CrossValidator: the information-leakage detection tool of Fig 1.
//
// Protocol, exactly as §III-A describes it:
//   1. create an unprivileged probe container on the target server;
//   2. recursively enumerate every pseudo file under procfs and sysfs;
//   3. read each path in the container context and in the host context at
//      the same instant and diff the contents (pair-wise differential
//      analysis): identical bytes mean both contexts reached the same
//      kernel data — the path leaks host state;
//   4. for paths whose contents differ, run an *active perturbation probe*:
//      drive distinctive load on the host and test whether the container
//      view moves with it — separating properly namespaced files from
//      partially restricted ones (the CC5-style ◐ of Table I).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/server.h"

namespace cleaks::leakage {

enum class LeakClass {
  kLeaking,     ///< container reads the host's kernel data verbatim (●)
  kPartial,     ///< restricted view that still tracks host state (◐)
  kNamespaced,  ///< container gets its own private view (isolated)
  kMasked,      ///< read denied by provider policy (○)
  kAbsent,      ///< path does not exist (e.g. no RAPL hardware) (○)
};

std::string to_string(LeakClass cls);

struct FileFinding {
  std::string path;
  LeakClass cls = LeakClass::kAbsent;
  /// True when transient read failures survived the bounded retry budget
  /// (or ate perturbation epochs): the class is a conservative fallback,
  /// not a measurement. Degraded-not-wrong: a consumer must treat the
  /// channel as unknown rather than trust the fallback class.
  bool degraded = false;
};

struct ScanOptions {
  /// Simulated time between paired snapshots in the perturbation probe.
  SimDuration probe_window = 2 * kSecond;
  /// Perturbation epochs per undecided path (half off, half on).
  int probe_epochs = 4;
  /// Relative change threshold separating "moves with host load" from
  /// background drift.
  double sensitivity = 3.0;
  /// Execution lanes for scan()'s read phases (0 = ThreadPool default via
  /// CLEAKS_THREADS / the affinity-mask CPU count, 1 = serial). Reads are
  /// pure and statically chunked, so the findings are identical for every
  /// value.
  int num_threads = 0;
  /// Bounded sim-time retry for transient (EBUSY) reads: up to
  /// `max_read_retries` rounds, stepping the server `retry_backoff` apart.
  /// The budget is sim-time-bounded by construction — a scan can stall at
  /// most max_read_retries * retry_backoff of simulated time, and a
  /// fault-free scan takes zero extra steps.
  int max_read_retries = 3;
  SimDuration retry_backoff = 300 * kMillisecond;
  /// Reuse classifications across repeated scan() calls on the same
  /// validator (the hash-first incremental pipeline). The first scan on a
  /// validator is always a full cold pass; a repeat scan re-renders only
  /// what moved since the stored (generation, epoch, fingerprint) key and
  /// reuses prior classifications for the rest — paths covered by a fault
  /// rule always run the full protocol. False forces every scan cold.
  bool incremental = true;
  /// Probe container configuration for scan(); nullopt = the historical
  /// default (a quarter of the host cores, 4 GiB).
  std::optional<container::ContainerConfig> probe_config;
};

class CrossValidator {
 public:
  /// The validator drives `server` (creates a probe container, advances
  /// simulated time, spawns perturbation tasks).
  explicit CrossValidator(cloud::Server& server,
                          ScanOptions options = ScanOptions{});

  /// Destroys the retained probe container (if the server still has it).
  ~CrossValidator();

  CrossValidator(const CrossValidator&) = delete;
  CrossValidator& operator=(const CrossValidator&) = delete;

  /// Run the full protocol over every registered pseudo file. Two phases:
  ///   A. the instant pair-wise differential over all paths — pure reads,
  ///      fanned across worker threads (one render buffer per worker);
  ///   B. the active perturbation probe for the still-undecided paths.
  ///      Perturbation epochs are *shared*: the load/quiet cycle runs once
  ///      and every undecided path snapshots around it (parallel reads, sim
  ///      stepping on the calling thread), instead of re-running the cycle
  ///      per path.
  /// The probe container is created on the first scan and retained until
  /// the validator is destroyed (per-scan create/destroy would bump the
  /// host generation, defeating generation-keyed reuse). With
  /// ScanOptions::incremental, repeat scans are hash-first: a scan whose
  /// (generation, render epoch, viewer fingerprint) key is unchanged
  /// reuses cached classifications with *zero* re-renders for
  /// cache-eligible paths and zero sim steps; a scan whose key moved
  /// re-renders everything but skips Phase B for undecided paths whose
  /// FNV digests (both contexts) match the cached pair. Fault-covered and
  /// degraded paths never reuse. Findings come back in list_paths() order
  /// and are identical for every num_threads value, warm or cold.
  std::vector<FileFinding> scan();

 private:
  /// One cached per-path verdict with the digests that justify reuse.
  struct PathCache {
    std::uint64_t container_digest = 0;
    std::uint64_t host_digest = 0;
    LeakClass cls = LeakClass::kAbsent;
    bool has_digests = false;  ///< digests captured at the stored key
    bool valid = false;        ///< entry may be reused at all
  };

  /// Create the probe lazily; a fresh incarnation invalidates the cache
  /// (its viewer key is new, so nothing cached could apply).
  container::Container& ensure_probe();

  cloud::Server* server_;
  ScanOptions options_;

  // Incremental-scan state: retained probe + per-path cache, tagged with
  // the (generation, epoch, fingerprint, viewer key) it was captured at.
  std::shared_ptr<container::Container> probe_;
  std::vector<std::string> cache_paths_;
  std::vector<PathCache> cache_;
  std::uint64_t cache_generation_ = 0;
  std::uint64_t cache_epoch_ = 0;
  std::uint64_t cache_fingerprint_ = 0;
  std::uint64_t cache_viewer_key_ = 0;
  bool cache_valid_ = false;
};

}  // namespace cleaks::leakage
