// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed around each public simulator call the
// benchmark makes (one driver thread, so a plain stack gives the parent).
// Each span keeps its name, host start/end in steady_clock nanoseconds,
// parent span and op id. Nothing is written while the workload runs; the
// caller dumps the spans and folds them into per-name statistics at the
// end. A span's self time is its duration minus the durations of its
// direct children (children never overlap: the driver is single-threaded).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : std::uint8_t {
  kOp,              ///< one benchmark op (root)
  kEngineStep,      ///< SimEngine::step
  kProviderStep,    ///< CloudProvider::step
  kLaunch,          ///< CloudProvider::launch / launch_batch
  kTerminate,       ///< CloudProvider::terminate / terminate_oldest
  kBilling,         ///< CloudProvider::billing() query
  kVerify,          ///< TimerImplantDetector::verify
  kRead,            ///< Container::read_file_into
  kScanCold,        ///< first CrossValidator::scan on a validator
  kScanWarm,        ///< repeat CrossValidator::scan
  kCount,
};

inline const char* span_label(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kEngineStep: return "sim.step";
    case SpanName::kProviderStep: return "cloud.step";
    case SpanName::kLaunch: return "cloud.launch";
    case SpanName::kTerminate: return "cloud.terminate";
    case SpanName::kBilling: return "cloud.billing";
    case SpanName::kVerify: return "coresidence.verify";
    case SpanName::kRead: return "fs.read";
    case SpanName::kScanCold: return "leakage.scan_cold";
    case SpanName::kScanWarm: return "leakage.scan_warm";
    case SpanName::kCount: break;
  }
  return "?";
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  SpanName name = SpanName::kOp;
  /// Per-op weight: a batch call covering `items` containers.
  std::uint32_t items = 1;
};

class SpanRecorder {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span; returns its index, or -1 while recording is off.
  int open(SpanName name, std::uint64_t op, std::uint32_t items = 1) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    Span span;
    span.name = name;
    span.op = op;
    span.items = items;
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(span);
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time of every span (ns): duration minus direct children.
  [[nodiscard]] std::vector<std::int64_t> self_times() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -=
            span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  /// Write every span as CSV (one line per span). Returns false on I/O
  /// failure.
  bool write_csv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "index,name,op,parent,start_ns,end_ns,items\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%s,%llu,%d,%lld,%lld,%u\n", i, span_label(s.name),
                   static_cast<unsigned long long>(s.op), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.items);
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op while the recorder is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, SpanName name, std::uint64_t op,
             std::uint32_t items = 1)
      : recorder_(&recorder), index_(recorder.open(name, op, items)) {}
  ~ScopedSpan() { recorder_->close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
