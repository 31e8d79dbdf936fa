#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

namespace {
std::atomic<uint64_t> g_next_span_id{1};
}  // namespace

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const size_t paren = line.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(paren + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user, nice, system, idle, iowait, irq, softirq, steal = 0.0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return cpu == "cpu" ? steal / static_cast<double>(::sysconf(_SC_CLK_TCK))
                      : 0.0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_[name] = Entry{value, unit, samples};
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, {ok, detail}});
}

void Report::Info(const std::string& name, double value) {
  info_[name] = JsonNumber(value);
}

void Report::Info(const std::string& name, const std::string& value) {
  info_[name] = JsonString(value);
}

bool Report::all_checks_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second.first; });
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(e.value) << ", \"unit\": " << JsonString(e.unit)
        << ", \"samples\": " << e.samples << "}";
    first = false;
  }
  out << "}, \"checks\": [";
  first = true;
  for (const auto& [name, verdict] : checks_) {
    out << (first ? "" : ", ") << "{\"name\": " << JsonString(name)
        << ", \"ok\": " << (verdict.first ? "true" : "false")
        << ", \"detail\": " << JsonString(verdict.second) << "}";
    first = false;
  }
  out << "], \"info\": {";
  first = true;
  for (const auto& [name, value] : info_) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << value;
    first = false;
  }
  out << "}}";
  return out.str();
}

size_t SpanLog::Begin(const char* name, uint64_t req, int64_t start_ns) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.req = req == 0 && !open_.empty() ? spans_[open_.back()].req : req;
  s.tid = tid_;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t handle, bool failed, int64_t wait_ns,
                  int64_t end_ns) {
  Span& s = spans_[handle];
  s.end_ns = end_ns;
  s.failed = failed;
  s.wait_ns = wait_ns;
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              std::string_view name, double scale) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9 *
                    scale);
    }
  }
  return out;
}

namespace {

/// Per span index: nanoseconds covered by its direct children. Children
/// of one span run on the parent's thread, one after another, so their
/// durations do not overlap and sum to the covered time.
std::vector<int64_t> ChildNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) child[it->second] += s.end_ns - s.start_ns;
  }
  return child;
}

}  // namespace

std::vector<double> SelfSeconds(const std::vector<Span>& spans,
                                std::string_view name) {
  const std::vector<int64_t> child = ChildNs(spans);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    out.push_back(
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - child[i]) *
        1e-9);
  }
  return out;
}

void PrintLayerTable(const std::vector<Span>& spans, std::ostream& out) {
  struct Row {
    uint64_t count = 0, failed = 0;
    int64_t busy = 0, self = 0, wait = 0;
  };
  const std::vector<int64_t> child = ChildNs(spans);
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Row& r = rows[s.name.substr(0, s.name.find('.'))];
    ++r.count;
    r.failed += s.failed ? 1 : 0;
    r.busy += s.end_ns - s.start_ns;
    r.self += s.end_ns - s.start_ns - child[i];
    r.wait += s.wait_ns;
  }
  out << std::left << std::setw(12) << "layer" << std::right << std::setw(10)
      << "spans" << std::setw(12) << "busy_ms" << std::setw(12) << "self_ms"
      << std::setw(12) << "wait_ms" << std::setw(8) << "failed" << "\n";
  out << std::fixed << std::setprecision(3);
  for (const auto& [layer, r] : rows) {
    out << std::left << std::setw(12) << layer << std::right << std::setw(10)
        << r.count << std::setw(12) << r.busy * 1e-6 << std::setw(12)
        << r.self * 1e-6 << std::setw(12) << r.wait * 1e-6 << std::setw(8)
        << r.failed << "\n";
  }
  out << std::defaultfloat;
}

rpe::Status WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path) {
  std::vector<const Span*> sorted;
  sorted.reserve(spans.size());
  for (const Span& s : spans) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  const int64_t origin = sorted.empty() ? 0 : sorted.front()->start_ns;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return rpe::Status::IOError("cannot open " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span* s : sorted) {
    std::fprintf(f,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"arg\":%llu,\"wait_us\":%.3f,"
                 "\"failed\":%d}}",
                 first ? "" : ",\n", JsonString(s->name).c_str(), s->tid,
                 static_cast<double>(s->start_ns - origin) / 1e3,
                 static_cast<double>(s->end_ns - s->start_ns) / 1e3,
                 static_cast<unsigned long long>(s->id),
                 static_cast<unsigned long long>(s->parent),
                 static_cast<unsigned long long>(s->req),
                 static_cast<double>(s->wait_ns) / 1e3, s->failed ? 1 : 0);
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) return rpe::Status::IOError("cannot write " + path);
  return rpe::Status::OK();
}

}  // namespace perfbench
