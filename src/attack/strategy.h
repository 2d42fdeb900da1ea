// Power attack strategies (§IV).
//
//   kContinuous  — run the power virus non-stop: catches every benign
//                  crest but is costly and conspicuous.
//   kPeriodic    — fire a spike every `period` regardless of host state
//                  (the paper's baseline: every 300 s).
//   kSynergistic — watch host power through the leaked RAPL channel and
//                  superimpose the spike exactly on benign peaks: fewer
//                  trials, higher combined spikes, near-zero monitoring
//                  cost.
#pragma once

#include <memory>
#include <vector>

#include "attack/monitor.h"
#include "container/container.h"
#include "util/stats.h"

namespace cleaks::attack {

enum class StrategyKind { kContinuous, kPeriodic, kSynergistic };

std::string to_string(StrategyKind kind);

struct AttackConfig {
  StrategyKind kind = StrategyKind::kSynergistic;
  /// Spike (burst) length once triggered.
  SimDuration spike_duration = 15 * kSecond;
  /// Periodic strategy: interval between spikes.
  SimDuration period = 300 * kSecond;
  /// Synergistic: trigger when the background sample exceeds this
  /// percentile of observed history...
  double trigger_percentile = 90.0;
  /// ...and also exceeds the observed mean by this relative margin, so a
  /// flat (idle) history's measurement noise cannot trigger a strike —
  /// the attacker waits for a genuine benign crest.
  double trigger_margin = 0.15;
  /// Synergistic: minimum background samples before the first trigger.
  int min_history = 60;
  /// Minimum gap between spikes (re-observation period).
  SimDuration cooldown = 60 * kSecond;
};

struct AttackStats {
  int spikes_launched = 0;
  double attack_seconds = 0.0;    ///< virus-running time
  double monitor_seconds = 0.0;   ///< pure-monitoring time (negligible CPU)
  double peak_observed_w = 0.0;   ///< highest host power seen via RAPL
};

/// Drives the attack workload inside one container instance. The caller
/// advances the world and invokes step() once per control interval.
class PowerAttacker {
 public:
  PowerAttacker(container::Container& instance, AttackConfig config);

  /// `dt` is the interval since the previous step.
  void step(SimTime now, SimDuration dt);

  [[nodiscard]] bool attacking() const noexcept { return !virus_pids_.empty(); }
  [[nodiscard]] const AttackStats& stats() const noexcept { return stats_; }

  /// Force-start / force-stop (used by the orchestrated Fig 4 scenario).
  void start_virus();
  void stop_virus();

 private:
  void step_synergistic(SimTime now, double sample);

  container::Container* instance_;
  AttackConfig config_;
  RaplMonitor monitor_;
  AttackStats stats_;
  std::vector<kernel::HostPid> virus_pids_;
  std::vector<double> history_;
  SimTime spike_end_ = 0;
  SimTime cooldown_until_ = 0;
  SimTime next_period_start_ = 0;
};

}  // namespace cleaks::attack
