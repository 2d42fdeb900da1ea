#include "obs/export.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cleaks::obs {
namespace {

// Local printf-append helper: obs sits below cleaks_util in the link
// order (the thread pool itself is instrumented), so it cannot use
// util/strings' strappendf.
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int written = std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  if (written > 0) out.append(buffer, static_cast<std::size_t>(written));
}

// Prometheus exposition values: the format spells non-finite floats
// "NaN", "+Inf" and "-Inf" — printf's "nan"/"inf" is rejected by
// conforming parsers.
void append_prom_double(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
  } else if (std::isinf(value)) {
    out += value > 0.0 ? "+Inf" : "-Inf";
  } else {
    appendf(out, "%.9g", value);
  }
}

// HELP text escaping per the exposition format: backslash and line feed
// are the only escapes (label values would additionally escape '"').
void append_prom_help(std::string& out, std::string_view help) {
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

}  // namespace

std::string bench_dir() {
  if (const char* env = std::getenv("CLEAKS_BENCH_DIR")) {
    if (env[0] != '\0') return env;
  }
#ifdef CLEAKS_REPO_ROOT
  return CLEAKS_REPO_ROOT;
#else
  return ".";
#endif
}

std::string bench_output_path(std::string_view bench_name) {
  std::string path = bench_dir();
  path += "/BENCH_";
  path += bench_name;
  path += ".json";
  return path;
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

JsonWriter::JsonWriter() {
  out_ = "{";
  needs_comma_.push_back(false);
}

void JsonWriter::comma() {
  if (needs_comma_.back()) out_ += ",";
  needs_comma_.back() = true;
  out_ += "\n";
  out_.append(2 * needs_comma_.size(), ' ');
}

void JsonWriter::key(std::string_view name) {
  comma();
  if (!name.empty()) {
    out_ += '"';
    escape(name);
    out_ += "\": ";
  }
}

void JsonWriter::escape(std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          appendf(out_, "\\u%04x", c);
        } else {
          out_ += c;
        }
    }
  }
}

JsonWriter& JsonWriter::begin_object(std::string_view name) {
  key(name);
  out_ += "{";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  if (had_members) {
    out_ += "\n";
    out_.append(2 * needs_comma_.size(), ' ');
  }
  out_ += "}";
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view name) {
  key(name);
  out_ += "[";
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  if (had_members) {
    out_ += "\n";
    out_.append(2 * needs_comma_.size(), ' ');
  }
  out_ += "]";
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::string_view value) {
  key(name);
  out_ += '"';
  escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, double value) {
  key(name);
  if (std::isfinite(value)) {
    appendf(out_, "%.9g", value);
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::uint64_t value) {
  key(name);
  appendf(out_, "%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::int64_t value) {
  key(name);
  appendf(out_, "%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, bool value) {
  key(name);
  out_ += value ? "true" : "false";
  return *this;
}

const std::string& JsonWriter::str() {
  if (!closed_ && needs_comma_.size() == 1) {
    out_ += "\n}\n";
    closed_ = true;
  }
  return out_;
}

void append_metrics_json(const Snapshot& snapshot, JsonWriter& writer) {
  writer.begin_object("metrics");
  writer.field("schema", kMetricsSchema);
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    snapshot.digest(Scope::kSim)));
  writer.field("sim_digest", digest);

  writer.begin_object("counters");
  for (const auto& metric : snapshot.metrics) {
    if (metric.kind != MetricValue::Kind::kCounter) continue;
    writer.field(metric.name, metric.counter);
  }
  writer.end_object();

  writer.begin_object("gauges");
  for (const auto& metric : snapshot.metrics) {
    if (metric.kind != MetricValue::Kind::kGauge) continue;
    writer.field(metric.name, metric.gauge);
  }
  writer.end_object();

  writer.begin_object("histograms");
  for (const auto& metric : snapshot.metrics) {
    if (metric.kind != MetricValue::Kind::kHistogram) continue;
    writer.begin_object(metric.name);
    writer.begin_array("bounds");
    for (auto bound : metric.hist_bounds) writer.element(bound);
    writer.end_array();
    writer.begin_array("counts");
    for (auto count : metric.hist_counts) writer.element(count);
    writer.end_array();
    writer.field("overflow", metric.hist_overflow);
    writer.field("sum", metric.hist_sum);
    writer.end_object();
  }
  writer.end_object();

  writer.end_object();
}

std::string to_prometheus(const Snapshot& snapshot, std::string_view prefix) {
  std::string out;
  const std::string p(prefix);
  for (const auto& metric : snapshot.metrics) {
    const std::string name = p + metric.name;
    if (!metric.help.empty()) {
      out += "# HELP " + name + " ";
      append_prom_help(out, metric.help);
      out += "\n";
    }
    switch (metric.kind) {
      case MetricValue::Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        appendf(out, "%s %llu\n", name.c_str(),
                static_cast<unsigned long long>(metric.counter));
        break;
      case MetricValue::Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name;
        out += ' ';
        append_prom_double(out, metric.gauge);
        out += '\n';
        break;
      case MetricValue::Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < metric.hist_bounds.size(); ++b) {
          cumulative += metric.hist_counts[b];
          appendf(out, "%s_bucket{le=\"%llu\"} %llu\n", name.c_str(),
                  static_cast<unsigned long long>(metric.hist_bounds[b]),
                  static_cast<unsigned long long>(cumulative));
        }
        cumulative += metric.hist_overflow;
        appendf(out, "%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                static_cast<unsigned long long>(cumulative));
        appendf(out, "%s_sum %llu\n", name.c_str(),
                static_cast<unsigned long long>(metric.hist_sum));
        appendf(out, "%s_count %llu\n", name.c_str(),
                static_cast<unsigned long long>(cumulative));
        break;
      }
    }
  }
  return out;
}

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {
  writer_.field("schema", kBenchSchema);
  writer_.field("bench", name_);
  writer_.begin_object("data");
}

std::string BenchReport::write(const Registry& registry) {
  if (written_) return {};
  written_ = true;
  writer_.end_object();  // data
  append_metrics_json(registry.snapshot(), writer_);
  const std::string path = bench_output_path(name_);
  if (!write_text_file(path, writer_.str())) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return {};
  }
  return path;
}

}  // namespace cleaks::obs
