// UvmAnalyzer: quantitative assessment of each leakage channel's capability
// to infer co-residence (§III-C2, Table II).
//
// Three metrics, measured empirically against two live simulated servers:
//   U (uniqueness)    — does the channel bestow data that identifies a host?
//     Tested three ways, matching the paper's three groups:
//       (1) static unique identifiers: content is time-stable on one host
//           but differs across hosts (boot_id, ifpriomap);
//       (2) implantable signatures: a crafted artifact (task name, timer,
//           lock) planted from one container is readable from another
//           (sched_debug, timer_list, locks);
//       (3) dynamic unique identifiers: monotone accumulators whose
//           cross-host distance dwarfs their same-host temporal drift
//           (uptime, stat, energy_uj, ...), ranked by growth rate.
//   V (variation)     — does the data change with time? (snapshot-trace
//     matching potential); capacity measured as joint Shannon entropy
//     (Formula 1) over a sampled trace.
//   M (manipulation)  — can a tenant implant data directly (●) or influence
//     it indirectly through resource consumption (◐)?
// The sampling windows, entropy trace and uniqueness ratio are fixed
// constants in uvm.cpp: every caller measures Table II the same way.
#pragma once

#include <string>
#include <vector>

#include "cloud/server.h"

namespace cleaks::leakage {

enum class UniqueKind { kNone, kStaticId, kImplant, kDynamicId };
enum class Manipulation { kNone, kIndirect, kDirect };

struct UvmMetrics {
  std::string channel;
  std::string path;  ///< concrete path measured
  bool unique = false;
  UniqueKind unique_kind = UniqueKind::kNone;
  bool variation = false;
  Manipulation manipulation = Manipulation::kNone;
  double entropy_bits = 0.0;   ///< joint Shannon entropy of a sampled trace
  double growth_per_sec = 0.0; ///< max accumulator growth rate (group 3 rank)
};

class UvmAnalyzer {
 public:
  /// `server_a` and `server_b` must be two distinct machines of the same
  /// cloud profile (both should run benign background load so variation is
  /// realistic). Both are advanced in lock-step by the analyzer.
  UvmAnalyzer(cloud::Server& server_a, cloud::Server& server_b);

  /// Analyze one channel (glob over pseudo-fs paths; the first matching
  /// path is measured).
  UvmMetrics analyze(const std::string& channel_glob);

  /// Analyze the full Table II channel list.
  std::vector<UvmMetrics> analyze_all();

 private:
  void advance_both(SimDuration dt);
  [[nodiscard]] std::string first_match(const std::string& glob) const;

  bool test_implant(const std::string& path);
  bool test_indirect_manipulation(const std::string& path);

  cloud::Server* server_a_;
  cloud::Server* server_b_;
  std::shared_ptr<container::Container> probe_a_;   ///< observer on host A
  std::shared_ptr<container::Container> probe_a2_;  ///< sibling on host A
  std::shared_ptr<container::Container> probe_b_;   ///< observer on host B
};

}  // namespace cleaks::leakage
