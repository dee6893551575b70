#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// Shortest round-trip decimal form of `value` (JSON number text).
std::string json_number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> values) {
  HULKV_CHECK(!values.empty(), "median of no samples");
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

std::optional<double> percentile(std::vector<double> values, double p) {
  HULKV_CHECK(p > 0.0 && p < 100.0, "percentile outside (0, 100)");
  const size_t n = values.size();
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - rank < kMinTail) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double throughput(double total, double seconds) {
  HULKV_CHECK(seconds > 0.0, "throughput over a non-positive window");
  return total / seconds;
}

Phases run_phases(double seconds, int setups,
                  const std::function<void()>& set_up,
                  const std::function<void(u64 deadline_ns)>& batch) {
  HULKV_CHECK(setups >= 1 && seconds > 0.0, "run_phases: empty run");
  Phases phases;
  auto timed_set_up = [&] {
    const u64 t0 = now_ns();
    set_up();
    const u64 ns = now_ns() - t0;
    phases.setup_s.push_back(ns * 1e-9);
    return ns;
  };
  timed_set_up();
  const u64 window = static_cast<u64>(seconds * 1e9);
  const u64 start = now_ns();
  u64 paused = 0;
  for (;;) {
    const u64 elapsed = now_ns() - start - paused;
    if (elapsed >= window) break;
    const size_t done = phases.setup_s.size();
    if (done < static_cast<size_t>(setups) && elapsed >= window / setups * done) {
      paused += timed_set_up();
      continue;
    }
    batch(start + paused + window);
  }
  phases.timed_s = (now_ns() - start - paused) * 1e-9;
  return phases;
}

std::vector<Metric> conform(const std::vector<Metric>& measured,
                            const std::vector<MetricSpec>& specs,
                            bool idle_reads_zero) {
  for (size_t i = 0; i < measured.size(); ++i) {
    const Metric& m = measured[i];
    const auto spec = std::find_if(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) {
                                     return s.name == m.name;
                                   });
    HULKV_CHECK(spec != specs.end(), "perfbench: metric " + m.name +
                                         " is not in the manifest");
    HULKV_CHECK(spec->unit == m.unit, "perfbench: metric " + m.name +
                                          " measured in " + m.unit);
    for (size_t j = 0; j < i; ++j) {
      HULKV_CHECK(measured[j].name != m.name,
                  "perfbench: metric " + m.name + " measured twice");
    }
  }
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const auto m = std::find_if(
        measured.begin(), measured.end(),
        [&](const Metric& x) { return x.name == spec.name; });
    HULKV_CHECK(m != measured.end() || idle_reads_zero,
                "perfbench: metric " + std::string(spec.name) +
                    " was not measured");
    out.push_back(m != measured.end()
                      ? *m
                      : Metric{std::string(spec.name), 0.0,
                               std::string(spec.unit)});
  }
  return out;
}

std::string result_json(bool correct, const Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << tally.attempted << ",\"failed\":"
     << tally.failed << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << metrics[i].name
       << "\":{\"value\":" << json_number(metrics[i].value)
       << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would
  // also count the pre-exec footprint of whatever forked this process.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw hulkv::SimError("no VmHWM in /proc/self/status");
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, u64 op) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  Span span;
  span.name = std::string(name);
  span.parent = tracer.current_;
  span.op = op;
  span.start_ns = now_ns();
  index_ = static_cast<u32>(tracer.spans_.size());
  tracer.spans_.push_back(std::move(span));
  tracer.current_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[index_];
  span.end_ns = now_ns();
  tracer_->current_ = span.parent;
}

u32 Tracer::add(Span span) {
  if (!enabled_) return Span::kNoParent;
  spans_.push_back(std::move(span));
  return static_cast<u32>(spans_.size() - 1);
}

std::vector<u64> Tracer::child_cover() const {
  // Children grouped by parent, then the union of their intervals
  // clipped to the parent (children of one span may overlap when they
  // come from concurrent server workers).
  std::vector<std::vector<u32>> children(spans_.size());
  for (u32 i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != Span::kNoParent) {
      children[spans_[i].parent].push_back(i);
    }
  }
  std::vector<u64> cover(spans_.size(), 0);
  for (u32 i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<u64, u64>> iv;
    for (u32 c : children[i]) {
      const u64 lo = std::max(spans_[c].start_ns, spans_[i].start_ns);
      const u64 hi = std::min(spans_[c].end_ns, spans_[i].end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    u64 covered = 0, reach = 0;
    for (const auto& [lo, hi] : iv) {
      const u64 from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    cover[i] = covered;
  }
  return cover;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  const std::vector<u64> cover = child_cover();
  std::map<std::string, Layer> out;
  for (u32 i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const u64 dur = s.end_ns - s.start_ns;
    Layer& layer = out[s.name];
    ++layer.calls;
    layer.self_ns += dur - std::min(dur, cover[i]);
  }
  return out;
}

double Tracer::min_child_coverage(std::string_view name) const {
  const std::vector<u64> cover = child_cover();
  double lowest = 1.0;
  for (u32 i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end_ns <= s.start_ns) continue;
    lowest = std::min(lowest, static_cast<double>(cover[i]) /
                                  static_cast<double>(s.end_ns - s.start_ns));
  }
  return lowest;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& other_data) const {
  std::ofstream out(path);
  HULKV_CHECK(out.good(), "cannot write trace file " + path);
  u64 origin = ~0ull;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_data
      << ",\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"hulkv perfbench (wall clock)\"}}";
  for (u32 i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.lane << ",\"ts\":" << json_number((s.start_ns - origin) / 1000.0)
        << ",\"dur\":" << json_number((s.end_ns - s.start_ns) / 1000.0)
        << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
        << ",\"parent\":";
    if (s.parent == Span::kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    if (!s.args.empty()) out << "," << s.args;
    out << "}}";
  }
  out << "]}\n";
  HULKV_CHECK(out.good(), "short write to trace file " + path);
}

double mean_self_ns(const std::map<std::string, Tracer::Layer>& layers,
                    const std::string& name) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.calls == 0) return 0.0;
  return static_cast<double>(it->second.self_ns) /
         static_cast<double>(it->second.calls);
}

}  // namespace perfbench
