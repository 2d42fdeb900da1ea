#include "attack/monitor.h"

#include "obs/metrics.h"
#include "util/strings.h"

namespace cleaks::attack {
namespace {

// In-container monitor telemetry: how often the attacker-side probes fire
// and how often the cloud's hardening turns them away. Sampling schedules
// are simulation-driven, so the counts are deterministic (Scope::kSim).
struct MonitorMetrics {
  obs::Counter& rapl_samples = obs::Registry::global().counter(
      "attack_rapl_samples_total", "RaplMonitor::sample_w attempts");
  obs::Counter& rapl_blocked = obs::Registry::global().counter(
      "attack_rapl_blocked_total",
      "RAPL sample attempts denied by masking or missing hardware");
  obs::Counter& rapl_holds = obs::Registry::global().counter(
      "attack_rapl_holds_total",
      "samples served from the held last-good estimate (dropout/wrap glitch)");
  obs::Counter& util_samples = obs::Registry::global().counter(
      "attack_util_samples_total",
      "UtilizationMonitor jiffy-delta sample attempts");

  static MonitorMetrics& get() {
    static MonitorMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::optional<double> RaplMonitor::sample_w(SimDuration since_last) {
  MonitorMetrics::get().rapl_samples.inc();
  const int packages = target_->host().spec().num_packages;
  std::vector<std::uint64_t> current;
  current.reserve(static_cast<std::size_t>(packages));
  for (int pkg = 0; pkg < packages; ++pkg) {
    const auto view = target_->read_file(
        strformat("/sys/class/powercap/intel-rapl:%d/energy_uj", pkg));
    if (view.code() == StatusCode::kUnavailable) {
      // Transient dropout: the counters kept running but this read missed
      // them, so the next delta would span an unknown gap. Hold the
      // last-good estimate and re-prime on the next successful read.
      MonitorMetrics::get().rapl_holds.inc();
      primed_ = false;
      degraded_ = true;
      return last_good_w_;
    }
    if (!view.is_ok()) {
      // Masked or absent: the defense removed the channel — the signal
      // must vanish, not be held.
      MonitorMetrics::get().rapl_blocked.inc();
      return std::nullopt;
    }
    current.push_back(
        static_cast<std::uint64_t>(parse_first_int(view.value())));
  }
  if (!primed_ || last_uj_.size() != current.size()) {
    last_uj_ = current;
    primed_ = true;
    // Recovering from a dropout keeps serving the held estimate for the
    // priming interval; a fresh monitor has nothing to hold (nullopt).
    return degraded_ ? last_good_w_ : std::nullopt;
  }
  double joules = 0.0;
  for (std::size_t pkg = 0; pkg < current.size(); ++pkg) {
    joules += hw::rapl_delta_j(last_uj_[pkg], current[pkg]);
  }
  last_uj_ = current;
  const double dt_sec = to_seconds(since_last);
  if (dt_sec <= 0.0) return std::nullopt;
  const double watts = joules / dt_sec;
  if (watts > max_plausible_w_) {
    // Counter-wrap glitch: the wrapped delta cannot be unwrapped from
    // in-container observables alone (see rapl_delta_j_checked), so the
    // sample is discarded. The counters are already re-primed on the
    // current reading; hold the crest estimate through the glitch.
    MonitorMetrics::get().rapl_holds.inc();
    degraded_ = true;
    return last_good_w_;
  }
  last_good_w_ = watts;
  degraded_ = false;
  return watts;
}

std::optional<UtilizationMonitor::Jiffies> UtilizationMonitor::read_jiffies()
    const {
  const auto view = target_->read_file("/proc/stat");
  if (!view.is_ok()) return std::nullopt;
  // First line: "cpu user nice system idle iowait irq softirq steal".
  const auto lines = split_lines(view.value());
  if (lines.empty()) return std::nullopt;
  const auto fields = extract_numbers(lines.front());
  if (fields.size() < 8) return std::nullopt;
  Jiffies jiffies;
  jiffies.busy = fields[0] + fields[1] + fields[2] + fields[5] + fields[6];
  jiffies.idle = fields[3] + fields[4];
  return jiffies;
}

std::optional<double> UtilizationMonitor::sample_utilization(
    SimDuration since_last) {
  (void)since_last;  // jiffy deltas carry their own time base
  MonitorMetrics::get().util_samples.inc();
  const auto current = read_jiffies();
  if (!current.has_value()) return std::nullopt;
  if (!primed_) {
    last_ = *current;
    primed_ = true;
    return std::nullopt;
  }
  const double busy = current->busy - last_.busy;
  const double idle = current->idle - last_.idle;
  last_ = *current;
  const double total = busy + idle;
  if (total <= 0.0) return std::nullopt;
  return busy / total;
}

}  // namespace cleaks::attack
