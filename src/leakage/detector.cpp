#include "leakage/detector.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "faults/injector.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/profiles.h"

namespace cleaks::leakage {
namespace {

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
      "paths whose classification was reused from the incremental cache");
  obs::Counter& renders_avoided = obs::Registry::global().counter(
      "scan_renders_avoided_total",
      "context renders skipped outright by unchanged-world reuse");
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

/// Bump the class counter matching a (possibly reused) classification, so
/// the per-class totals always equal the finding counts — reuse included.
void count_class(ScanMetrics& metrics, LeakClass cls) {
  switch (cls) {
    case LeakClass::kLeaking:
      metrics.leaking.inc();
      break;
    case LeakClass::kPartial:
      metrics.partial.inc();
      break;
    case LeakClass::kNamespaced:
      metrics.namespaced.inc();
      break;
    case LeakClass::kMasked:
      metrics.masked.inc();
      break;
    case LeakClass::kAbsent:
      metrics.absent.inc();
      break;
  }
}

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
                        const std::vector<double>& on_drift,
                        double sensitivity) {
  for (std::size_t i = 0; i < on_drift.size(); ++i) {
    const double off = i < off_drift.size() ? off_drift[i] : 0.0;
    if (on_drift[i] > sensitivity * off + 1e-9 && on_drift[i] > 1.0) {
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
  cache_valid_ = false;  // new incarnation = new viewer key: scan cold
  return *probe_;
}

std::vector<FileFinding> CrossValidator::scan() {
  auto& metrics = ScanMetrics::get();
  metrics.runs.inc();
  const auto sim_now = [this] { return server_->host().now(); };

  container::Container& probe = ensure_probe();
  const fs::PseudoFs& pseudo = server_->fs();
  const kernel::Task& viewer = *probe.init_task();
  const std::uint64_t viewer_key = viewer.ns.pid->id;

  const std::vector<std::string> paths = pseudo.list_paths();
  const std::size_t n = paths.size();
  std::vector<FileFinding> findings(n);
  std::vector<std::uint8_t> undecided(n, 0);
  std::vector<std::uint8_t> transient(n, 0);
  std::vector<std::uint8_t> reused(n, 0);
  std::vector<std::uint8_t> faulted(n, 0);
  std::vector<std::uint8_t> eligible(n, 0);
  std::vector<std::uint8_t> digest_ok(n, 0);
  std::vector<std::uint64_t> container_digest(n, 0);
  std::vector<std::uint64_t> host_digest(n, 0);

  // Fault-covered paths run the full protocol every scan and are never
  // cached or reused: fault draws are keyed by sim-time window, and reuse
  // would skip the draws that decide whether *these* reads fault.
  const faults::FaultInjector* injector = pseudo.fault_injector();
  for (std::size_t i = 0; i < n; ++i) {
    faulted[i] = injector != nullptr && injector->covers(paths[i]) ? 1 : 0;
    eligible[i] = faulted[i] == 0 && pseudo.cache_eligible(paths[i]) ? 1 : 0;
  }

  const std::uint64_t start_generation = server_->host().state_generation();
  const std::uint64_t start_epoch = pseudo.render_epoch();
  const std::uint64_t start_fingerprint =
      fs::PseudoFs::viewer_state_fingerprint(viewer);
  // warm: the cache describes this probe over this exact path list.
  // unchanged: additionally, nothing any cache-eligible render depends on
  // has moved since the cache was stored — generation, render epoch and
  // viewer fingerprint all match, so both context renders of every
  // eligible path are byte-identical to the cached pass by construction.
  const bool warm = options_.incremental && cache_valid_ &&
                    cache_viewer_key_ == viewer_key && cache_paths_ == paths;
  const bool unchanged = warm && cache_generation_ == start_generation &&
                         cache_epoch_ == start_epoch &&
                         cache_fingerprint_ == start_fingerprint;

  ThreadPool pool(options_.num_threads);
  const fs::ViewContext host_ctx{};  // host context: no viewer, no policy

  // Unchanged-world fast path: reuse every cached eligible classification
  // outright — zero renders, zero reads, zero sim time for these paths.
  if (unchanged) {
    for (std::size_t i = 0; i < n; ++i) {
      if (eligible[i] == 0 || !cache_[i].valid) continue;
      findings[i].path = paths[i];
      findings[i].cls = cache_[i].cls;
      reused[i] = 1;
      metrics.paths.inc();
      metrics.paths_reused.inc();
      metrics.renders_avoided.inc(2);  // container + host render skipped
      count_class(metrics, cache_[i].cls);
    }
  }

  // Phase A: the instant pair-wise differential, fanned across workers.
  // All reads are pure (the simulation is quiescent here), each worker
  // reuses two lane-local scratch buffers for its whole range, and every
  // slot written belongs to exactly one worker — so the phase is race-free
  // and its results independent of the thread count. The class counters
  // below are incremented from inside the parallel body: lane-sharded
  // integer sums, so the merged totals equal the (deterministic) finding
  // counts. Both renders are FNV-digested as a side effect; on a warm scan
  // an undecided path whose digest pair matches the cached pair reuses the
  // cached Phase-B verdict instead of re-probing (hash-first reuse).
  const SimTime differential_start = sim_now();
  pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    std::string& container_buf = pool.scratch(0);
    std::string& host_buf = pool.scratch(1);
    for (std::size_t i = begin; i < end; ++i) {
      if (reused[i] != 0) continue;
      findings[i].path = paths[i];
      metrics.paths.inc();
      const StatusCode code = probe.read_file_into(paths[i], container_buf);
      if (code == StatusCode::kPermissionDenied) {
        findings[i].cls = LeakClass::kMasked;
        metrics.masked.inc();
        continue;
      }
      if (code == StatusCode::kUnavailable) {
        transient[i] = 1;  // EBUSY: retried below on the sim-time budget
        continue;
      }
      if (code != StatusCode::kOk) {
        findings[i].cls = LeakClass::kAbsent;
        metrics.absent.inc();
        continue;
      }
      if (pseudo.read_into(paths[i], host_ctx, host_buf) != StatusCode::kOk) {
        findings[i].cls = LeakClass::kAbsent;
        metrics.absent.inc();
        continue;
      }
      container_digest[i] = fnv1a64(container_buf);
      host_digest[i] = fnv1a64(host_buf);
      digest_ok[i] = 1;
      if (container_buf == host_buf) {
        findings[i].cls = LeakClass::kLeaking;
        metrics.differential_hits.inc();
        metrics.leaking.inc();
      } else if (warm && faulted[i] == 0 && cache_[i].valid &&
                 cache_[i].has_digests &&
                 (cache_[i].cls == LeakClass::kPartial ||
                  cache_[i].cls == LeakClass::kNamespaced) &&
                 cache_[i].container_digest == container_digest[i] &&
                 (unchanged || cache_[i].host_digest == host_digest[i])) {
        // Hash-first reuse of the perturbation verdict. In a changed
        // world both digests must match (nothing about the pair moved);
        // in an unchanged world the container digest alone suffices —
        // that covers kUncacheable files like /proc/containerleaks,
        // whose host side (the live registry) churns without the world
        // moving while the container side is exactly what Phase B
        // measures.
        findings[i].cls = cache_[i].cls;
        reused[i] = 1;
        metrics.paths_reused.inc();
        count_class(metrics, cache_[i].cls);
      } else {
        undecided[i] = 1;  // needs the perturbation probe
        metrics.undecided.inc();
      }
    }
  });
  // Phase A': bounded sim-time retry of the transient reads. Each round
  // steps the sim once on this thread (so the fault windows can close),
  // then re-runs the pair-wise differential for just the EBUSY slots in
  // parallel. A fault-free scan has no transient slots and takes zero
  // extra steps — the golden traces cannot move. Slots still EBUSY after
  // the budget degrade to kAbsent with the degraded flag set: unknown,
  // never misclassified.
  std::vector<std::size_t> retry;
  for (std::size_t i = 0; i < transient.size(); ++i) {
    if (transient[i] != 0) retry.push_back(i);
  }
  for (int round = 0; round < options_.max_read_retries && !retry.empty();
       ++round) {
    server_->step(options_.retry_backoff);
    std::vector<std::uint8_t> still_busy(retry.size(), 0);
    pool.parallel_for(retry.size(), [&](std::size_t begin, std::size_t end) {
      std::string& container_buf = pool.scratch(0);
      std::string& host_buf = pool.scratch(1);
      for (std::size_t s = begin; s < end; ++s) {
        const std::size_t i = retry[s];
        metrics.reads_retried.inc();
        const StatusCode code = probe.read_file_into(paths[i], container_buf);
        if (code == StatusCode::kUnavailable) {
          still_busy[s] = 1;
          continue;
        }
        if (code == StatusCode::kPermissionDenied) {
          findings[i].cls = LeakClass::kMasked;
          metrics.masked.inc();
          continue;
        }
        if (code != StatusCode::kOk ||
            pseudo.read_into(paths[i], host_ctx, host_buf) !=
                StatusCode::kOk) {
          findings[i].cls = LeakClass::kAbsent;
          metrics.absent.inc();
          continue;
        }
        if (container_buf == host_buf) {
          findings[i].cls = LeakClass::kLeaking;
          metrics.differential_hits.inc();
          metrics.leaking.inc();
        } else {
          undecided[i] = 1;
          metrics.undecided.inc();
        }
      }
    });
    std::vector<std::size_t> next_retry;
    for (std::size_t s = 0; s < retry.size(); ++s) {
      if (still_busy[s] != 0) next_retry.push_back(retry[s]);
    }
    retry.swap(next_retry);
  }
  for (const std::size_t i : retry) {
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

    for (int epoch = 0; epoch < options_.probe_epochs; ++epoch) {
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
      server_->step(options_.probe_window);
      pool.parallel_for(states.size(),
                        [&](std::size_t begin, std::size_t end) {
                          std::string& loaded = pool.scratch(0);
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
      server_->step(options_.probe_window);  // settle back to baseline
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
      const LeakClass verdict =
          drift_verdict(st.off_drift, st.on_drift, options_.sensitivity);
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

  // Epilogue: store the cache for the next scan. If the sim moved under
  // this scan (retry rounds or Phase B stepped it), the Phase-A digests
  // describe a dead generation — re-render every storeable path at the
  // settled world so the next warm scan has a matchable key. A scan that
  // never stepped keeps its Phase-A digests (or, in the unchanged fast
  // path, carries the still-current cached entries forward).
  if (options_.incremental) {
    const std::uint64_t end_generation = server_->host().state_generation();
    const bool stepped = end_generation != start_generation;
    if (stepped) {
      pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
        std::string& container_buf = pool.scratch(0);
        std::string& host_buf = pool.scratch(1);
        for (std::size_t i = begin; i < end; ++i) {
          digest_ok[i] = 0;
          if (faulted[i] != 0 || findings[i].degraded) continue;
          if (probe.read_file_into(paths[i], container_buf) !=
              StatusCode::kOk) {
            continue;
          }
          if (pseudo.read_into(paths[i], host_ctx, host_buf) !=
              StatusCode::kOk) {
            continue;
          }
          container_digest[i] = fnv1a64(container_buf);
          host_digest[i] = fnv1a64(host_buf);
          digest_ok[i] = 1;
        }
      });
    }
    std::vector<PathCache> next(n);
    for (std::size_t i = 0; i < n; ++i) {
      PathCache& entry = next[i];
      entry.cls = findings[i].cls;
      // Fault-covered and degraded verdicts are never reusable.
      if (faulted[i] != 0 || findings[i].degraded) continue;
      if (digest_ok[i] != 0) {
        entry.container_digest = container_digest[i];
        entry.host_digest = host_digest[i];
        entry.has_digests = true;
        entry.valid = true;
      } else if (!stepped && reused[i] != 0 && warm && cache_[i].valid) {
        entry = cache_[i];  // unchanged world, zero reads: still current
      } else if (findings[i].cls == LeakClass::kMasked) {
        entry.valid = true;  // no bytes to digest; the epoch key covers it
      }
    }
    cache_ = std::move(next);
    cache_paths_ = paths;
    cache_generation_ = end_generation;
    cache_epoch_ = pseudo.render_epoch();
    cache_fingerprint_ = fs::PseudoFs::viewer_state_fingerprint(viewer);
    cache_viewer_key_ = viewer_key;
    cache_valid_ = true;
  } else {
    cache_valid_ = false;
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
