#include "obs/stream.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "obs/export.h"
#include "util/env.h"

namespace cleaks::obs {
namespace {

double to_trace_us(SimTime t) { return static_cast<double>(t) / 1000.0; }

std::terminate_handler g_previous_terminate = nullptr;

[[noreturn]] void flight_terminate_handler() {
  FlightRecorder::global().dump_to_file("fatal");
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

}  // namespace

void FlightRecorder::feed(const std::vector<Event>& merged) {
  for (const Event& event : merged) {
    events_.push_back(event);
    latest_ = std::max(latest_, event.time);
  }
  while (!events_.empty() && latest_ >= keep_ &&
         events_.front().time < latest_ - keep_) {
    events_.pop_front();
  }
}

std::string FlightRecorder::dump_json() const {
  JsonWriter json;
  json.field("schema", kEventsSchema);
  json.field("window_ns", static_cast<std::uint64_t>(keep_));
  json.field("latest_ns", static_cast<std::uint64_t>(latest_));
  json.field("count", static_cast<std::uint64_t>(events_.size()));
  json.begin_array("events");
  for (const Event& event : events_) {
    json.begin_object();
    json.field("t", static_cast<std::uint64_t>(event.time));
    json.field("kind", to_string(event.kind));
    json.field("source", event.source);
    json.field("a", event.a);
    json.field("b", event.b);
    json.end_object();
  }
  json.end_array();
  return json.str();
}

std::string FlightRecorder::dump_to_file(std::string_view tag) const {
  std::string path = bench_dir();
  path += "/FLIGHT_";
  path += tag;
  path += ".json";
  if (!write_text_file(path, dump_json())) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return {};
  }
  return path;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = [] {
    auto* recorder = new FlightRecorder();
    if (const long parsed = env_long_or("CLEAKS_FLIGHT_RECORDER", 0);
        parsed > 0) {
      if (parsed > 1) {
        recorder->set_window(static_cast<SimDuration>(parsed) * kSecond);
      }
      recorder->set_enabled(true);
      g_previous_terminate = std::set_terminate(flight_terminate_handler);
    }
    return recorder;
  }();
  return *instance;
}

bool bench_check(bool ok, std::string_view tag, std::string_view what) {
  if (ok) return true;
  std::fprintf(stderr, "bench_check failed [%.*s]: %.*s\n",
               static_cast<int>(tag.size()), tag.data(),
               static_cast<int>(what.size()), what.data());
  const FlightRecorder& recorder = FlightRecorder::global();
  if (recorder.enabled()) recorder.dump_to_file(tag);
  return false;
}

std::string to_chrome_trace(const std::vector<Event>& events) {
  JsonWriter json;
  json.field("displayTimeUnit", "ms");
  json.begin_array("traceEvents");

  // One process track per distinct source, named after it.
  std::vector<std::uint32_t> sources;
  for (const Event& event : events) sources.push_back(event.source);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  for (const std::uint32_t source : sources) {
    json.begin_object();
    json.field("ph", "M");
    json.field("pid", static_cast<std::uint64_t>(source));
    json.field("name", "process_name");
    json.begin_object("args")
        .field("name", "server-" + std::to_string(source))
        .end_object();
    json.end_object();
  }

  auto header = [&](const Event& event, std::string_view ph) {
    json.begin_object();
    json.field("ph", ph);
    json.field("pid", static_cast<std::uint64_t>(event.source));
    json.field("tid", 0);
    json.field("ts", to_trace_us(event.time));
    json.field("name", to_string(event.kind));
  };
  char id_buf[24];
  for (const Event& event : events) {
    switch (event.kind) {
      case EventKind::kCtxSwitch:
        header(event, "C");
        json.begin_object("args")
            .field("switches", event.a)
            .field("migrations", event.b)
            .end_object();
        break;
      case EventKind::kPerfEvent:
        header(event, "C");
        json.begin_object("args")
            .field("instructions", event.a)
            .field("busy_us", event.b)
            .end_object();
        break;
      case EventKind::kRaplSample:
        header(event, "C");
        json.begin_object("args")
            .field("power_mw", event.a)
            .field("pkg0_energy_uj", event.b)
            .end_object();
        break;
      case EventKind::kThermalSample:
        header(event, "C");
        json.begin_object("args")
            .field("max_milli_c", event.a)
            .field("min_milli_c", event.b)
            .end_object();
        break;
      case EventKind::kFaultInjected:
      case EventKind::kScanFinding:
      case EventKind::kCgroupMutation:
        header(event, "i");
        json.field("s", "p");  // process-scoped instant
        json.begin_object("args")
            .field("a", event.a)
            .field("b", event.b)
            .end_object();
        break;
      case EventKind::kContainerLifecycle:
        // Async slice spanning the container's life, keyed by the
        // instance-id hash so create/destroy pair up.
        header(event, event.a != 0 ? "b" : "e");
        json.field("cat", "container");
        std::snprintf(id_buf, sizeof id_buf, "0x%016llx",
                      static_cast<unsigned long long>(event.b));
        json.field("id", id_buf);
        break;
    }
    json.end_object();
  }

  json.end_array();
  return json.str();
}

}  // namespace cleaks::obs
