#include "attack/strategy.h"

#include <algorithm>

#include "workload/profiles.h"

namespace cleaks::attack {
namespace {

/// Synergistic: cap on history length (rolling window).
constexpr std::size_t kMaxHistory = 3600;

}  // namespace

std::string to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kContinuous:
      return "continuous";
    case StrategyKind::kPeriodic:
      return "periodic";
    case StrategyKind::kSynergistic:
      return "synergistic";
  }
  return "?";
}

PowerAttacker::PowerAttacker(container::Container& instance,
                             AttackConfig config)
    : instance_(&instance), config_(config), monitor_(instance) {}

void PowerAttacker::start_virus() {
  if (!virus_pids_.empty()) return;
  const auto virus = workload::power_virus();
  const std::size_t copies = instance_->cpuset().empty()
                                 ? static_cast<std::size_t>(
                                       instance_->host().spec().num_cores)
                                 : instance_->cpuset().size();
  for (std::size_t copy = 0; copy < copies; ++copy) {
    virus_pids_.push_back(
        instance_->run("pwrvirus-" + std::to_string(copy), virus.behavior)
            ->host_pid);
  }
  ++stats_.spikes_launched;
}

void PowerAttacker::stop_virus() {
  for (auto pid : virus_pids_) instance_->kill(pid);
  virus_pids_.clear();
}

void PowerAttacker::step_synergistic(SimTime now, double sample) {
  if (attacking()) {
    if (now >= spike_end_) {
      stop_virus();
      cooldown_until_ = now + config_.cooldown;
    }
    return;
  }
  // Background observation only (attack samples would bias the history).
  history_.push_back(sample);
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin());
  }
  if (static_cast<int>(history_.size()) < config_.min_history) return;
  if (now < cooldown_until_) return;
  const double threshold =
      percentile(history_, config_.trigger_percentile);
  RunningStats background;
  for (double observed : history_) background.add(observed);
  const double crest_floor =
      background.mean() * (1.0 + config_.trigger_margin);
  if (sample >= threshold && sample >= crest_floor) {
    start_virus();
    spike_end_ = now + config_.spike_duration;
  }
}

void PowerAttacker::step(SimTime now, SimDuration dt) {
  const auto sample = monitor_.sample_w(dt);
  if (sample.has_value()) {
    stats_.peak_observed_w = std::max(stats_.peak_observed_w, *sample);
  }
  if (attacking()) {
    stats_.attack_seconds += to_seconds(dt);
  } else {
    stats_.monitor_seconds += to_seconds(dt);
  }

  switch (config_.kind) {
    case StrategyKind::kContinuous:
      if (!attacking()) start_virus();
      break;
    case StrategyKind::kPeriodic:
      if (attacking()) {
        if (now >= spike_end_) stop_virus();
      } else if (now >= next_period_start_) {
        start_virus();
        spike_end_ = now + config_.spike_duration;
        next_period_start_ = now + config_.period;
      }
      break;
    case StrategyKind::kSynergistic:
      // Without the leaked signal (masked channel or power-based
      // namespace), the synergistic attacker is blind and never triggers —
      // exactly the defense outcome of §VI-B.
      if (sample.has_value()) {
        step_synergistic(now, *sample);
      } else if (attacking() && now >= spike_end_) {
        stop_virus();
      }
      break;
  }
}

}  // namespace cleaks::attack
