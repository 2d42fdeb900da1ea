// Exporters: the single schema behind every bench emission, plus a
// Prometheus-style text renderer for the self-telemetry pseudo-file.
//
// Every bench writes BENCH_<name>.json through BenchReport, so the perf
// trajectory accumulates in one place with one envelope:
//
//   {
//     "schema": "cleaks-bench-v1",
//     "bench": "<name>",
//     "data": { ... bench-specific payload ... },
//     "metrics": {
//       "schema": "cleaks-metrics-v1",
//       "sim_digest": "<hex>",          // determinism digest (kSim scope)
//       "counters": {...}, "gauges": {...}, "histograms": {...}
//     }
//   }
//
// Output directory: $CLEAKS_BENCH_DIR if set, else the repo root baked in
// at configure time (so runs from any build directory accumulate at the
// repo root), else the current directory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace cleaks::obs {

inline constexpr std::string_view kBenchSchema = "cleaks-bench-v1";
inline constexpr std::string_view kMetricsSchema = "cleaks-metrics-v1";

/// Directory BENCH_*.json files land in (no trailing slash).
std::string bench_dir();
/// bench_dir() + "/BENCH_<bench_name>.json".
std::string bench_output_path(std::string_view bench_name);
/// Write `text` to `path`, replacing it. True only when the open, the
/// write and the final flush in fclose all succeed — a full disk often
/// fails only at that flush.
bool write_text_file(const std::string& path, std::string_view text);

/// Minimal streaming JSON writer: handles commas, nesting and string
/// escaping so benches can't emit malformed files. Keys are only passed
/// inside objects; elements inside arrays take no key. JSON has no
/// spelling for NaN or ±Inf, so a non-finite double is written as null.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& begin_object(std::string_view key = {});
  JsonWriter& end_object();
  JsonWriter& begin_array(std::string_view key = {});
  JsonWriter& end_array();

  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonWriter& field(std::string_view key, unsigned value) {
    return field(key, static_cast<std::uint64_t>(value));
  }
  JsonWriter& field(std::string_view key, bool value);

  JsonWriter& element(std::string_view value) { return field({}, value); }
  JsonWriter& element(double value) { return field({}, value); }
  JsonWriter& element(std::uint64_t value) { return field({}, value); }
  JsonWriter& element(std::int64_t value) { return field({}, value); }
  JsonWriter& element(int value) { return field({}, value); }

  /// The document so far. Well-formed once nesting is balanced back to the
  /// root (the writer opens the root object itself).
  [[nodiscard]] const std::string& str();

 private:
  void comma();
  void key(std::string_view key);
  void escape(std::string_view text);

  std::string out_;
  std::vector<bool> needs_comma_;  ///< one flag per open scope
  bool closed_ = false;
};

/// Append the snapshot as the "metrics" member of the currently open
/// object (the cleaks-metrics-v1 sub-schema above).
void append_metrics_json(const Snapshot& snapshot, JsonWriter& writer);

/// Prometheus text exposition of a snapshot. Metric names are prefixed
/// (default "cleaks_"); histograms render with cumulative {le="..."}
/// buckets.
std::string to_prometheus(const Snapshot& snapshot,
                          std::string_view prefix = "cleaks_");

/// The shared bench emitter. Construct, fill json() with the bench's
/// payload fields (the writer is already positioned inside "data"), then
/// write(). The envelope, registry snapshot and output path are handled
/// here so every bench stays schema-conformant.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  [[nodiscard]] JsonWriter& json() noexcept { return writer_; }

  /// Close "data", append `registry`'s snapshot, write the file. Returns
  /// the output path, or "" on I/O failure. Call once.
  std::string write(const Registry& registry = Registry::global());

 private:
  std::string name_;
  JsonWriter writer_;
  bool written_ = false;
};

}  // namespace cleaks::obs
