#include "leakage/uvm.h"

#include <algorithm>
#include <cmath>

#include "leakage/channels.h"

#include "util/stats.h"
#include "util/strings.h"
#include "workload/profiles.h"

namespace cleaks::leakage {
namespace {

// §III-C sampling: two variation windows, then a 60-sample trace at 1 s
// binned 16 ways for the entropy estimate.
constexpr SimDuration kVariationWindow = 5 * kSecond;
constexpr int kEntropySamples = 60;
constexpr SimDuration kEntropyInterval = kSecond;
constexpr int kEntropyBins = 16;
/// Cross-host distance must exceed this multiple of same-host temporal
/// drift for a field to count as a dynamic unique identifier.
constexpr double kUniquenessRatio = 50.0;

}  // namespace

UvmAnalyzer::UvmAnalyzer(cloud::Server& server_a, cloud::Server& server_b)
    : server_a_(&server_a), server_b_(&server_b) {
  container::ContainerConfig config;
  config.num_cpus = std::max(1, server_a.host().spec().num_cores / 4);
  config.memory_limit_bytes = 4ULL << 30;
  probe_a_ = server_a_->runtime().create(config);
  probe_a2_ = server_a_->runtime().create(config);
  probe_b_ = server_b_->runtime().create(config);
}

void UvmAnalyzer::advance_both(SimDuration dt) {
  server_a_->step(dt);
  server_b_->step(dt);
}

std::string UvmAnalyzer::first_match(const std::string& glob) const {
  for (const auto& path : server_a_->fs().list_paths()) {
    if (glob_match(glob, path)) return path;
  }
  return {};
}

bool UvmAnalyzer::test_implant(const std::string& path) {
  // Plant a distinctive artifact from the sibling container: a uniquely
  // named task holding a timer and a file lock. If the observer container
  // can find the signature in its own view of the channel, co-residence is
  // verifiable by implantation (§III-C group 2).
  const std::string signature =
      "sig" + server_a_->host().fork_rng("implant").hex_string(10);
  kernel::TaskBehavior behavior;
  behavior.duty_cycle = 0.05;
  behavior.named_timers = 2;
  behavior.file_locks = 2;
  auto planted = probe_a2_->run(signature, behavior);
  advance_both(kSecond);
  const auto view = probe_a_->read_file(path);
  bool found = false;
  if (view.is_ok()) {
    // Direct artifacts: the comm itself, or the planted task's host pid
    // (locks lists pids, not comms).
    found = contains(view.value(), signature) ||
            (path == "/proc/locks" &&
             contains(view.value(),
                      strformat(" %d ", planted->host_pid)));
  }
  probe_a2_->kill(planted->host_pid);
  advance_both(kSecond);
  return found;
}

bool UvmAnalyzer::test_indirect_manipulation(const std::string& path) {
  // Epochs alternating quiet / heavy sibling load; the channel is
  // indirectly manipulable when the observer's view moves with the load.
  // The baseline snapshot precedes the load so both accumulator rates and
  // level shifts register.
  std::vector<double> off_sum;
  std::vector<double> on_sum;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const bool loaded = epoch % 2 == 1;
    const auto before = probe_a_->read_file(path);
    std::vector<kernel::HostPid> pids;
    if (loaded) {
      auto virus = workload::power_virus();
      virus.behavior.io_rate_per_s = 800.0;
      for (std::size_t i = 0; i < probe_a2_->cpuset().size() + 2; ++i) {
        pids.push_back(
            probe_a2_->run("hog-" + std::to_string(i), virus.behavior)
                ->host_pid);
      }
    }
    advance_both(2 * kSecond);
    const auto after = probe_a_->read_file(path);
    for (auto pid : pids) probe_a2_->kill(pid);
    advance_both(2 * kSecond);  // settle back before the next epoch
    if (before.is_ok() && after.is_ok()) {
      const auto nb = extract_numbers(before.value());
      const auto na = extract_numbers(after.value());
      const std::size_t n = std::min(nb.size(), na.size());
      auto& bucket = loaded ? on_sum : off_sum;
      bucket.resize(std::max(bucket.size(), n), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        bucket[i] += std::fabs(na[i] - nb[i]);
      }
    }
  }
  for (std::size_t i = 0; i < on_sum.size(); ++i) {
    const double off = i < off_sum.size() ? off_sum[i] : 0.0;
    if (std::fabs(on_sum[i] - off) > std::max(0.25 * off, 2.0)) return true;
  }
  return false;
}

UvmMetrics UvmAnalyzer::analyze(const std::string& channel_glob) {
  UvmMetrics metrics;
  metrics.channel = channel_glob;
  metrics.path = first_match(channel_glob);
  if (metrics.path.empty()) return metrics;
  const std::string& path = metrics.path;

  // --- snapshots for uniqueness and variation (two windows) ---
  const auto a_t0 = probe_a_->read_file(path);
  const auto b_t0 = probe_b_->read_file(path);
  advance_both(kVariationWindow);
  const auto a_t1 = probe_a_->read_file(path);
  advance_both(kVariationWindow);
  const auto a_t2 = probe_a_->read_file(path);
  const auto b_t2 = probe_b_->read_file(path);
  if (!a_t0.is_ok() || !a_t1.is_ok() || !a_t2.is_ok()) return metrics;

  metrics.variation =
      a_t0.value() != a_t1.value() || a_t1.value() != a_t2.value();

  const bool cross_host_differs =
      b_t0.is_ok() && a_t0.value() != b_t0.value();

  if (!metrics.variation && cross_host_differs) {
    // Group 1: static unique identifier.
    metrics.unique = true;
    metrics.unique_kind = UniqueKind::kStaticId;
  } else if (test_implant(path)) {
    // Group 2: implantable signature.
    metrics.unique = true;
    metrics.unique_kind = UniqueKind::kImplant;
    metrics.manipulation = Manipulation::kDirect;
  } else if (metrics.variation && cross_host_differs && b_t0.is_ok() &&
             b_t2.is_ok()) {
    // Group 3: dynamic unique identifier — an accumulator field that grows
    // strictly in both observation windows, whose cross-host distance
    // dwarfs its same-host drift, and whose cross-host distance is stable
    // across the windows (true lifetime accumulators keep their offset;
    // fluctuating levels do not).
    const auto va0 = extract_numbers(a_t0.value());
    const auto va1 = extract_numbers(a_t1.value());
    const auto va2 = extract_numbers(a_t2.value());
    const auto vb0 = extract_numbers(b_t0.value());
    const auto vb2 = extract_numbers(b_t2.value());
    const std::size_t n =
        std::min({va0.size(), va1.size(), va2.size(), vb0.size(), vb2.size()});
    const double window_sec = to_seconds(kVariationWindow);
    for (std::size_t i = 0; i < n; ++i) {
      const bool monotone = va1[i] > va0[i] && va2[i] > va1[i];
      if (!monotone) continue;
      const double temporal = va2[i] - va0[i];
      const double cross0 = std::fabs(vb0[i] - va0[i]);
      const double cross2 = std::fabs(vb2[i] - va2[i]);
      const bool offset_stable =
          std::fabs(cross2 - cross0) < 0.3 * cross0 + 1.0;
      if (cross0 > kUniquenessRatio * temporal / 2.0 &&
          cross0 > 10.0 && offset_stable) {
        metrics.unique = true;
        metrics.unique_kind = UniqueKind::kDynamicId;
        metrics.growth_per_sec =
            std::max(metrics.growth_per_sec, temporal / (2.0 * window_sec));
      }
    }
  }

  // --- manipulation (if not already proven direct) ---
  if (metrics.manipulation == Manipulation::kNone &&
      test_indirect_manipulation(path)) {
    metrics.manipulation = Manipulation::kIndirect;
  }

  // --- entropy of a sampled trace (Formula 1) ---
  if (metrics.variation) {
    std::vector<std::vector<double>> fields;
    for (int sample = 0; sample < kEntropySamples; ++sample) {
      const auto view = probe_a_->read_file(path);
      if (view.is_ok()) {
        const auto nums = extract_numbers(view.value());
        if (fields.size() < nums.size()) fields.resize(nums.size());
        for (std::size_t i = 0; i < nums.size(); ++i) {
          fields[i].push_back(nums[i]);
        }
      }
      advance_both(kEntropyInterval);
    }
    for (const auto& field : fields) {
      metrics.entropy_bits += binned_entropy(field, kEntropyBins);
    }
  }
  return metrics;
}

std::vector<UvmMetrics> UvmAnalyzer::analyze_all() {
  std::vector<UvmMetrics> all;
  for (const auto& glob : table2_channel_globs()) {
    all.push_back(analyze(glob));
  }
  return all;
}

}  // namespace cleaks::leakage
