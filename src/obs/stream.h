// Streaming consumers of the event bus (obs/events.h):
//
//  * FlightRecorder — keeps the last N sim-seconds of merged events and
//    dumps them as a `cleaks-events-v1` JSON document on demand, on a
//    failed bench_check(), or from a std::terminate handler when enabled
//    via CLEAKS_FLIGHT_RECORDER (value = window in sim-seconds; "1" keeps
//    the 30 s default). While the global recorder is enabled, every
//    SimEngine turns its event stream on at build, so the recorder sees
//    the engine's whole run; the recorder alone never enables the bus.
//  * to_chrome_trace — chrome://tracing-loadable JSON from events:
//    per-server counter tracks, instants for faults and scan findings,
//    container lifetimes as async slices.
//
// Everything here runs on the drain thread (the engine's measurement
// phase), so no locking: the bus's per-lane buffers are the only
// concurrent structure.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.h"
#include "util/sim_time.h"

namespace cleaks::obs {

inline constexpr std::string_view kEventsSchema = "cleaks-events-v1";

class FlightRecorder {
 public:
  static constexpr SimDuration kDefaultWindow = 30 * kSecond;

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// How much trailing sim-time of events to retain.
  void set_window(SimDuration keep) noexcept { keep_ = keep; }
  [[nodiscard]] SimDuration window() const noexcept { return keep_; }

  /// Consume one drained batch; evicts events older than window() behind
  /// the latest timestamp seen.
  void feed(const std::vector<Event>& merged);

  [[nodiscard]] const std::deque<Event>& buffered() const noexcept {
    return events_;
  }

  /// The retained events as a cleaks-events-v1 JSON document.
  [[nodiscard]] std::string dump_json() const;
  /// Write dump_json() to bench_dir()/FLIGHT_<tag>.json; returns the path
  /// ("" on I/O failure).
  std::string dump_to_file(std::string_view tag) const;

  /// Process-wide recorder, configured from CLEAKS_FLIGHT_RECORDER on
  /// first use; when the env enables it, a std::terminate hook is
  /// installed that dumps FLIGHT_fatal.json before dying.
  static FlightRecorder& global();

 private:
  bool enabled_ = false;
  SimDuration keep_ = kDefaultWindow;
  SimTime latest_ = 0;
  std::deque<Event> events_;
};

/// Bench assertion with a black box: on failure prints `what` to stderr
/// and, if the global flight recorder is enabled, dumps its buffer to
/// FLIGHT_<tag>.json. Returns `ok` so benches keep their own exit-code
/// logic.
bool bench_check(bool ok, std::string_view tag, std::string_view what);

/// chrome://tracing / Perfetto-loadable JSON. Each event source becomes a
/// process track ("server-<id>"): kCtxSwitch/kPerfEvent/kRaplSample/
/// kThermalSample render as counter samples, kFaultInjected/kScanFinding/
/// kCgroupMutation as instants, and kContainerLifecycle pairs as async
/// slices spanning the container's life. Sim time maps 1 ns -> 1/1000
/// trace µs.
std::string to_chrome_trace(const std::vector<Event>& events);

}  // namespace cleaks::obs
