// Incremental-scan benchmark (PR 5): one cold CrossValidator::scan versus
// ten warm re-scans — five on an untouched world, five after small
// perturbations (a 1 s server step each) — at 1/2/4/8 execution lanes.
//
// Asserted, not just reported:
//   * an unchanged-world warm re-scan does ZERO container-context renders
//     for cache-eligible paths (the viewer-cache hit/miss counters both
//     stand still: reuse happens above the filesystem, not through it)
//     while scan_renders_avoided_total advances;
//   * warm unchanged re-scans are faster than the cold scan at every lane
//     count (they skip renders, diffs and every perturbation epoch);
//   * the FNV digest over all eleven scans' findings is identical at every
//     lane count — the incremental pipeline keeps the bitwise determinism
//     contract, warm or cold, perturbed or not.
// Emits BENCH_scan_incremental.json through the cleaks-bench-v1 exporter.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cloud/profiles.h"
#include "cloud/server.h"
#include "leakage/detector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/fnv.h"

using namespace cleaks;

namespace {

constexpr int kWarmScans = 10;      // 5 unchanged + 5 perturbed
constexpr int kUnchangedScans = 5;

struct Run {
  int threads = 0;
  double cold_seconds = 0.0;
  double warm_unchanged_seconds = 0.0;  // mean over the unchanged re-scans
  double warm_perturbed_seconds = 0.0;  // mean over the perturbed re-scans
  std::uint64_t renders_avoided = 0;    // delta across all warm re-scans
  std::uint64_t paths_reused = 0;       // delta across all warm re-scans
  bool zero_rerenders = true;  // viewer cache untouched while unchanged
  std::uint64_t digest = 0;    // over all 11 scans' findings
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Run bench_incremental(int threads) {
  auto& registry = obs::Registry::global();
  obs::Counter& avoided = registry.counter("scan_renders_avoided_total");
  obs::Counter& reused = registry.counter("scan_paths_reused_total");
  obs::Counter& viewer_hits = registry.counter("fs_viewer_cache_hits_total");
  obs::Counter& viewer_misses =
      registry.counter("fs_viewer_cache_misses_total");

  cloud::Server server("inc-host", cloud::local_testbed(), 77, 40 * kDay);
  leakage::ScanOptions options;
  options.num_threads = threads;
  leakage::CrossValidator validator(server, options);

  Run run;
  run.threads = threads;
  Fnv64 digest;
  auto digest_findings = [&digest](
                             const std::vector<leakage::FileFinding>& found) {
    for (const auto& finding : found) {
      digest.add_string(finding.path);
      digest.add_string(leakage::to_string(finding.cls));
      digest.add_byte(finding.degraded ? 1 : 0);
    }
  };

  double start = now_seconds();
  digest_findings(validator.scan());  // cold: full protocol
  run.cold_seconds = now_seconds() - start;

  const std::uint64_t avoided_before = avoided.value();
  const std::uint64_t reused_before = reused.value();
  for (int i = 0; i < kWarmScans; ++i) {
    const bool perturb = i >= kUnchangedScans;
    if (perturb) server.step(kSecond);
    const std::uint64_t hits_before = viewer_hits.value();
    const std::uint64_t misses_before = viewer_misses.value();
    start = now_seconds();
    digest_findings(validator.scan());
    const double elapsed = now_seconds() - start;
    if (perturb) {
      run.warm_perturbed_seconds += elapsed / kUnchangedScans;
    } else {
      run.warm_unchanged_seconds += elapsed / kUnchangedScans;
      // The acceptance bit: an unchanged warm re-scan never even consults
      // the viewer cache for eligible paths — no hits, no misses, no
      // container-context renders at all.
      if (viewer_hits.value() != hits_before ||
          viewer_misses.value() != misses_before) {
        run.zero_rerenders = false;
      }
    }
  }
  run.renders_avoided = avoided.value() - avoided_before;
  run.paths_reused = reused.value() - reused_before;
  run.digest = digest.hash;
  return run;
}

}  // namespace

int main() {
  std::printf("== incremental scan: cold vs %d warm re-scans ==\n\n",
              kWarmScans);
  std::vector<Run> runs;
  for (int threads : {1, 2, 4, 8}) {
    runs.push_back(bench_incremental(threads));
  }

  bool identical = true;
  bool warm_faster = true;
  bool zero_rerenders = true;
  bool avoided_renders = true;
  obs::BenchReport report("scan_incremental");
  report.json().field("warm_scans", kWarmScans);
  report.json().field("unchanged_scans", kUnchangedScans);
  report.json().begin_array("runs");
  for (const auto& run : runs) {
    std::printf(
        "  %d lane(s): cold %8.2f ms  warm-unchanged %8.3f ms  "
        "warm-perturbed %8.2f ms  avoided %llu  reused %llu  digest %016llx\n",
        run.threads, run.cold_seconds * 1e3,
        run.warm_unchanged_seconds * 1e3, run.warm_perturbed_seconds * 1e3,
        (unsigned long long)run.renders_avoided,
        (unsigned long long)run.paths_reused,
        (unsigned long long)run.digest);
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  (unsigned long long)run.digest);
    report.json()
        .begin_object()
        .field("threads", run.threads)
        .field("cold_seconds", run.cold_seconds)
        .field("warm_unchanged_seconds", run.warm_unchanged_seconds)
        .field("warm_perturbed_seconds", run.warm_perturbed_seconds)
        .field("renders_avoided", run.renders_avoided)
        .field("paths_reused", run.paths_reused)
        .field("zero_rerenders_while_unchanged", run.zero_rerenders)
        .field("digest", digest_hex)
        .end_object();
    if (run.digest != runs[0].digest) identical = false;
    if (run.warm_unchanged_seconds >= run.cold_seconds) warm_faster = false;
    if (!run.zero_rerenders) zero_rerenders = false;
    if (run.renders_avoided == 0) avoided_renders = false;
  }
  report.json().end_array();
  report.json().field("identical_across_threads", identical);
  report.json().field("warm_faster_than_cold", warm_faster);
  report.json().field("zero_rerenders_while_unchanged", zero_rerenders);
  report.json().field("renders_avoided_positive", avoided_renders);
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write bench report\n");
    return 1;
  }

  const bool ok =
      identical && warm_faster && zero_rerenders && avoided_renders;
  std::printf("\nidentical across lanes: %s  warm<cold: %s  "
              "zero rerenders unchanged: %s  renders avoided: %s\n",
              identical ? "yes" : "NO", warm_faster ? "yes" : "NO",
              zero_rerenders ? "yes" : "NO", avoided_renders ? "yes" : "NO");
  std::printf("wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}
