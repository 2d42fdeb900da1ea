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
  /// Execution lanes for scan()'s read phases (0 = ThreadPool default via
  /// CLEAKS_THREADS / the affinity-mask CPU count, 1 = serial). Reads are
  /// pure and statically chunked, so the findings are identical for every
  /// value.
  int num_threads = 0;
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
  /// Every call runs both phases in full; a scan's findings depend only on
  /// the world it reads. The probe container is created on the first scan
  /// and retained until the validator is destroyed, so repeat scans see the
  /// same probe pids and namespace ids. Findings come back in list_paths()
  /// order and are identical for every num_threads value.
  std::vector<FileFinding> scan();

 private:
  /// The retained probe container, created on first use (or re-created if
  /// something destroyed it).
  container::Container& ensure_probe();

  cloud::Server* server_;
  ScanOptions options_;
  std::shared_ptr<container::Container> probe_;
};

}  // namespace cleaks::leakage
