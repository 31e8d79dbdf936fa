// Shared helpers of rpe_perfbench: clocks, percentiles, process
// memory, the JSON result a subcommand prints, and the in-memory span log
// the traced runs record.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline int64_t NowNs() { return ToNs(Clock::now()); }
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (pct in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double pct);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}
double Mean(const std::vector<double>& v);

/// Peak resident set size of process `pid` (0 = self) in MB, from VmHWM.
double PeakRssMb(int pid = 0);
/// CPU time (utime + stime) of every thread of process `pid` in seconds,
/// from /proc/<pid>/stat. Time the host steals from a CPU is not charged.
double ProcessCpuSeconds(int pid);
/// Time the host has stolen from all CPUs since boot in seconds, the steal
/// column of /proc/stat.
double StealSeconds();

/// \brief One subcommand's machine-readable report: metrics with unit and
/// sample count, attempted/failed operation counts, named output checks,
/// and free-form info. Printed as one JSON line, parsed by run.py.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 1);
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Info(const std::string& name, double value);
  void Info(const std::string& name, const std::string& value);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool all_checks_ok() const;
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, std::pair<bool, std::string>>> checks_;
  std::map<std::string, std::string> info_;  ///< values already JSON-encoded
};

std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

// ---------------------------------------------------------------------------
// Spans

/// \brief One timed call into a layer. `req` groups the spans of one
/// request or session; `wait_ns` is time the work waited before it began
/// (queueing behind earlier work), not part of [start, end).
struct Span {
  std::string name;  ///< "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t req = 0;
  uint32_t tid = 0;
  int64_t wait_ns = 0;
  bool failed = false;
};

/// \brief Per-thread span recorder. Not thread-safe: each thread owns one
/// and the logs are merged after the threads join. Spans nest through an
/// explicit stack, so a span's parent is the innermost open span.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) {}

  /// Open a span; returns its handle for End().
  size_t Begin(const char* name, uint64_t req, int64_t start_ns = NowNs());
  void End(size_t handle, bool failed = false, int64_t wait_ns = 0,
           int64_t end_ns = NowNs());

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> Take() { return std::move(spans_); }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// \brief RAII span; a null log makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t req = 0) : log_(log) {
    if (log_ != nullptr) handle_ = log_->Begin(name, req);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(handle_, failed_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void Fail() { failed_ = true; }

 private:
  SpanLog* log_;
  size_t handle_ = 0;
  bool failed_ = false;
};

/// Durations (in `scale` units per second, e.g. 1e6 for µs) of every span
/// named exactly `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              std::string_view name, double scale);
/// Self time in seconds of every span named `name` (duration minus the
/// time its child spans cover).
std::vector<double> SelfSeconds(const std::vector<Span>& spans,
                                std::string_view name);

/// Per-layer table (layer = span name up to the first '.'): span count,
/// busy, self and wait time, failures.
void PrintLayerTable(const std::vector<Span>& spans, std::ostream& out);

/// Chrome trace-event JSON, the viewer format `rpe_cli serve-tcp
/// --trace-out` writes (chrome://tracing, Perfetto).
rpe::Status WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path);

}  // namespace perfbench
