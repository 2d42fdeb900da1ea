#include "leakage/detector.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/profiles.h"

namespace cleaks::leakage {
namespace {

/// Simulated time between paired snapshots in the perturbation probe.
constexpr SimDuration kProbeWindow = 2 * kSecond;
/// Perturbation epochs per undecided path (half off, half on).
constexpr int kProbeEpochs = 4;
/// Relative change threshold separating "moves with host load" from
/// background drift.
constexpr double kSensitivity = 3.0;
/// Bounded sim-time retry for transient (EBUSY) reads: up to
/// kMaxReadRetries rounds, stepping the server kRetryBackoff apart. A scan
/// can stall at most kMaxReadRetries * kRetryBackoff of simulated time,
/// and a fault-free scan takes zero extra steps.
constexpr int kMaxReadRetries = 3;
constexpr SimDuration kRetryBackoff = 300 * kMillisecond;

// Scan telemetry. Classification counters are incremented from inside
// parallel bodies (lane-sharded, integer merge) and by the verdict loop on
// the caller thread; either way the totals equal the finding counts, which
// PR 1 already pins as thread-count-independent.
struct ScanMetrics {
  obs::Counter& runs = obs::Registry::global().counter(
      "scan_runs_total", "full CrossValidator::scan passes");
  obs::Counter& paths = obs::Registry::global().counter(
      "scan_paths_total", "pseudo-fs paths examined");
  obs::Counter& differential_hits = obs::Registry::global().counter(
      "scan_differential_hits_total",
      "paths whose instant pair-wise differential matched host bytes");
  obs::Counter& undecided = obs::Registry::global().counter(
      "scan_undecided_total", "paths sent to the perturbation probe");
  obs::Counter& leaking = obs::Registry::global().counter(
      "scan_class_leaking_total", "findings classified LEAKING");
  obs::Counter& partial = obs::Registry::global().counter(
      "scan_class_partial_total", "findings classified PARTIAL");
  obs::Counter& namespaced = obs::Registry::global().counter(
      "scan_class_namespaced_total", "findings classified NAMESPACED");
  obs::Counter& masked = obs::Registry::global().counter(
      "scan_class_masked_total", "findings classified MASKED");
  obs::Counter& absent = obs::Registry::global().counter(
      "scan_class_absent_total", "findings classified ABSENT");
  obs::Counter& probe_epochs = obs::Registry::global().counter(
      "scan_probe_epochs_total", "shared perturbation epochs run");
  obs::Counter& reads_retried = obs::Registry::global().counter(
      "scan_reads_retried_total",
      "transient (EBUSY) reads retried within the sim-time budget");
  obs::Counter& paths_reused = obs::Registry::global().counter(
      "scan_paths_reused_total",
      "always 0: every scan runs the full protocol");
  obs::Counter& channels_degraded = obs::Registry::global().counter(
      "scan_channels_degraded_total",
      "findings marked degraded (retry budget or epochs exhausted)");
  obs::Histogram& phase_ns = obs::Registry::global().histogram(
      "scan_phase_sim_ns",
      {kMillisecond, kSecond, 4 * kSecond, 16 * kSecond, kMinute,
       10 * kMinute},
      "simulated time consumed per scan phase");

  static ScanMetrics& get() {
    static ScanMetrics metrics;
    return metrics;
  }
};

/// Accumulate per-field absolute drift between two snapshots of one file.
/// A field-count change is recorded as drift too (structure moved).
void accumulate_drift(std::string_view before, std::string_view after,
                      std::vector<double>& bucket) {
  const auto nums_before = extract_numbers(before);
  const auto nums_after = extract_numbers(after);
  const std::size_t n = std::min(nums_before.size(), nums_after.size());
  bucket.resize(std::max(bucket.size(), n), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    bucket[i] += std::fabs(nums_after[i] - nums_before[i]);
  }
  if (nums_before.size() != nums_after.size()) {
    bucket.resize(std::max(bucket.size(), n + 1), 0.0);
    bucket[n] += 1.0;
  }
}

/// Fields that moved markedly more under host load than at rest mean the
/// restricted view still tracks host state (the ◐ of Table I).
LeakClass drift_verdict(const std::vector<double>& off_drift,
                        const std::vector<double>& on_drift) {
  for (std::size_t i = 0; i < on_drift.size(); ++i) {
    const double off = i < off_drift.size() ? off_drift[i] : 0.0;
    if (on_drift[i] > kSensitivity * off + 1e-9 && on_drift[i] > 1.0) {
      return LeakClass::kPartial;
    }
  }
  return LeakClass::kNamespaced;
}

/// Launch the distinctive perturbation load: one power-virus task per host
/// core, each also generating IO, a file lock, and a named timer so every
/// channel family (power, VFS, locks, timers) registers the epoch.
std::vector<kernel::HostPid> spawn_perturbation(cloud::Server& server) {
  auto virus = workload::power_virus();
  std::vector<kernel::HostPid> pids;
  const int cores = server.host().spec().num_cores;
  pids.reserve(static_cast<std::size_t>(cores));
  for (int i = 0; i < cores; ++i) {
    kernel::Host::SpawnOptions options;
    options.comm = "perturb-" + std::to_string(i);
    options.behavior = virus.behavior;
    options.behavior.io_rate_per_s = 500.0;
    options.behavior.file_locks = 1;
    options.behavior.named_timers = 1;
    pids.push_back(server.host().spawn_task(options)->host_pid);
  }
  return pids;
}

}  // namespace

std::string to_string(LeakClass cls) {
  switch (cls) {
    case LeakClass::kLeaking:
      return "LEAKING";
    case LeakClass::kPartial:
      return "PARTIAL";
    case LeakClass::kNamespaced:
      return "NAMESPACED";
    case LeakClass::kMasked:
      return "MASKED";
    case LeakClass::kAbsent:
      return "ABSENT";
  }
  return "?";
}

CrossValidator::CrossValidator(cloud::Server& server, ScanOptions options)
    : server_(&server), options_(std::move(options)) {}

CrossValidator::~CrossValidator() {
  if (probe_ != nullptr && probe_->alive()) {
    server_->runtime().destroy(probe_->id());
  }
}

container::Container& CrossValidator::ensure_probe() {
  if (probe_ != nullptr && probe_->alive()) return *probe_;
  container::ContainerConfig config;
  if (options_.probe_config.has_value()) {
    config = *options_.probe_config;
  } else {
    const int cores = server_->host().spec().num_cores;
    config.num_cpus = std::max(1, cores / 4);
    config.memory_limit_bytes = 4ULL << 30;
  }
  probe_ = server_->runtime().create(config);
  return *probe_;
}

std::vector<FileFinding> CrossValidator::scan() {
  auto& metrics = ScanMetrics::get();
  metrics.runs.inc();
  const auto sim_now = [this] { return server_->host().now(); };

  container::Container& probe = ensure_probe();
  const fs::PseudoFs& pseudo = server_->fs();
  const std::vector<std::string> paths = pseudo.list_paths();
  const std::size_t n = paths.size();
  std::vector<FileFinding> findings(n);
  std::vector<std::uint8_t> undecided(n, 0);
  for (std::size_t i = 0; i < n; ++i) findings[i].path = paths[i];

  ThreadPool pool(options_.num_threads);
  const fs::ViewContext host_ctx{};  // host context: no viewer, no policy

  // Phase A: the instant pair-wise differential over every path, fanned
  // across workers, then bounded sim-time retry rounds for the transient
  // (EBUSY) reads. All reads are pure (the simulation is quiescent inside
  // a round), each chunk reuses two local buffers for its whole range,
  // and every slot written belongs to exactly one worker — so the phase
  // is race-free and its results independent of the thread count. The
  // class counters are lane-sharded integer sums, so the merged totals
  // equal the (deterministic) finding counts. Each retry round
  // first steps the sim once on this thread, so the fault windows can
  // close. A fault-free scan has no transient slots and takes zero extra
  // steps — the golden traces cannot move. Slots still EBUSY after the
  // budget degrade to kAbsent with the degraded flag set: unknown, never
  // misclassified.
  const SimTime differential_start = sim_now();
  std::vector<std::size_t> busy(n);
  for (std::size_t i = 0; i < n; ++i) busy[i] = i;
  for (int round = 0; !busy.empty(); ++round) {
    if (round > 0) {
      if (round > kMaxReadRetries) break;
      server_->step(kRetryBackoff);
    }
    std::vector<std::uint8_t> still_busy(busy.size(), 0);
    pool.parallel_for(busy.size(), [&](std::size_t begin, std::size_t end) {
      std::string container_buf;
      std::string host_buf;
      for (std::size_t s = begin; s < end; ++s) {
        const std::size_t i = busy[s];
        (round == 0 ? metrics.paths : metrics.reads_retried).inc();
        const StatusCode code = probe.read_file_into(paths[i], container_buf);
        if (code == StatusCode::kUnavailable) {
          still_busy[s] = 1;  // EBUSY: retried in the next round
        } else if (code == StatusCode::kPermissionDenied) {
          findings[i].cls = LeakClass::kMasked;
          metrics.masked.inc();
        } else if (code != StatusCode::kOk ||
                   pseudo.read_into(paths[i], host_ctx, host_buf) !=
                       StatusCode::kOk) {
          findings[i].cls = LeakClass::kAbsent;
          metrics.absent.inc();
        } else if (container_buf == host_buf) {
          findings[i].cls = LeakClass::kLeaking;
          metrics.differential_hits.inc();
          metrics.leaking.inc();
        } else {
          undecided[i] = 1;  // needs the perturbation probe
          metrics.undecided.inc();
        }
      }
    });
    std::vector<std::size_t> next;
    for (std::size_t s = 0; s < busy.size(); ++s) {
      if (still_busy[s] != 0) next.push_back(busy[s]);
    }
    busy.swap(next);
  }
  for (const std::size_t i : busy) {
    findings[i].cls = LeakClass::kAbsent;
    findings[i].degraded = true;
    metrics.channels_degraded.inc();
    metrics.absent.inc();
  }
  metrics.phase_ns.observe(
      static_cast<std::uint64_t>(sim_now() - differential_start));

  // Phase B: shared perturbation epochs. The load/quiet cycle runs once for
  // the whole scan and every undecided path snapshots around it — the sim
  // steps on this thread; the snapshot reads before and after each step fan
  // out across workers. Per-path drift state is slot-owned, so results stay
  // independent of the thread count here too.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < undecided.size(); ++i) {
    if (undecided[i] != 0) pending.push_back(i);
  }
  if (!pending.empty()) {
    const SimTime perturbation_start = sim_now();
    struct ProbeState {
      std::size_t index = 0;
      bool baseline_ok = false;
      std::string baseline;
      std::vector<double> off_drift;
      std::vector<double> on_drift;
      int accumulated = 0;  ///< epochs that produced a drift pair
      int lost = 0;         ///< epochs eaten by failed reads (faults)
    };
    std::vector<ProbeState> states(pending.size());
    for (std::size_t s = 0; s < pending.size(); ++s) {
      states[s].index = pending[s];
    }

    for (int epoch = 0; epoch < kProbeEpochs; ++epoch) {
      const bool perturb = epoch % 2 == 1;
      metrics.probe_epochs.inc();
      pool.parallel_for(states.size(),
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t s = begin; s < end; ++s) {
                            auto& st = states[s];
                            st.baseline_ok =
                                probe.read_file_into(
                                    findings[st.index].path, st.baseline) ==
                                StatusCode::kOk;
                          }
                        });
      std::vector<kernel::HostPid> noise_pids;
      if (perturb) noise_pids = spawn_perturbation(*server_);
      server_->step(kProbeWindow);
      pool.parallel_for(states.size(),
                        [&](std::size_t begin, std::size_t end) {
                          std::string loaded;
                          for (std::size_t s = begin; s < end; ++s) {
                            auto& st = states[s];
                            if (!st.baseline_ok) {
                              ++st.lost;
                              continue;
                            }
                            if (probe.read_file_into(findings[st.index].path,
                                                     loaded) !=
                                StatusCode::kOk) {
                              ++st.lost;
                              continue;
                            }
                            accumulate_drift(
                                st.baseline, loaded,
                                perturb ? st.on_drift : st.off_drift);
                            ++st.accumulated;
                          }
                        });
      for (auto pid : noise_pids) server_->host().kill_task(pid);
      server_->step(kProbeWindow);  // settle back to baseline
    }
    for (const auto& st : states) {
      // Degraded-not-wrong: a path that lost *every* epoch to faults has
      // no drift evidence at all — fall back to kAbsent (unknown) rather
      // than let the empty accumulators read as kNamespaced. A path that
      // lost only some epochs keeps its verdict but carries the flag.
      if (st.accumulated == 0) {
        findings[st.index].cls = LeakClass::kAbsent;
        findings[st.index].degraded = true;
        metrics.channels_degraded.inc();
        metrics.absent.inc();
        continue;
      }
      const LeakClass verdict = drift_verdict(st.off_drift, st.on_drift);
      findings[st.index].cls = verdict;
      if (st.lost > 0) {
        findings[st.index].degraded = true;
        metrics.channels_degraded.inc();
      }
      (verdict == LeakClass::kPartial ? metrics.partial : metrics.namespaced)
          .inc();
    }
    metrics.phase_ns.observe(
        static_cast<std::uint64_t>(sim_now() - perturbation_start));
  }

  // Findings are in fixed path order and this runs on the scan's caller
  // thread, so emission order (and hence the merged stream) is a pure
  // function of the scan outcome, never of the pool's chunking.
  if (auto& bus = obs::EventBus::global(); bus.enabled()) {
    const SimTime scan_end = sim_now();
    for (std::size_t i = 0; i < n; ++i) {
      bus.emit(obs::EventKind::kScanFinding, scan_end,
               static_cast<std::uint32_t>(fnv1a64(paths[i])),
               static_cast<std::uint64_t>(findings[i].cls),
               findings[i].degraded ? 1 : 0);
    }
  }
  return findings;
}

}  // namespace cleaks::leakage
