// Measurement harness of hulkv_perfbench: run statistics, op
// tallies, the span tracer with its Chrome-trace export, and the
// one-line JSON result it prints last.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace perfbench {

using hulkv::u32;
using hulkv::u64;
using hulkv::u8;

/// Steady-clock nanoseconds: the clock hulkv::telemetry::now_ns reads,
/// so serve-side request records line up with benchmark spans.
u64 now_ns();

/// Median of `values` (mean of the middle pair for an even count).
/// Throws hulkv::SimError on an empty input.
double median(std::vector<double> values);

/// Fewest samples that must lie above a reported percentile.
inline constexpr size_t kMinTail = 10;

/// Nearest-rank `p`-th percentile (0 < p < 100): the value at rank
/// ceil(p/100 * n) of the sorted samples. Refused (nullopt) when fewer
/// than kMinTail samples lie above that rank, so a tail figure is never
/// read off a handful of samples.
std::optional<double> percentile(std::vector<double> values, double p);

/// Uniform sample of at most `capacity` values of a stream (Vitter's
/// algorithm R, driven by a seeded generator). Its memory is fixed once
/// the stream is longer than `capacity`, so a process's peak footprint
/// does not grow with how many ops a run completes.
class Reservoir {
 public:
  Reservoir(size_t capacity, u64 seed) : capacity_(capacity), rng_(seed) {
    values_.reserve(capacity);
  }
  void add(double value) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
      return;
    }
    const u64 j = rng_.next_below(seen_);
    if (j < capacity_) values_[j] = value;
  }
  const std::vector<double>& values() const { return values_; }
  u64 seen() const { return seen_; }

 private:
  size_t capacity_;
  hulkv::Xoshiro256 rng_;
  std::vector<double> values_;
  u64 seen_ = 0;
};

/// Work completed per second over a whole timed window. Sweep
/// workloads report this rather than a per-op median: per-op host time
/// is bimodal on shared VMs, while totals over long windows are steady.
/// Throws hulkv::SimError when `seconds` is not positive.
double throughput(double total, double seconds);

/// Set-up and timed phase of one run.
struct Phases {
  std::vector<double> setup_s;  // seconds of each set-up
  double timed_s = 0.0;         // wall seconds of the timed batches alone
};

/// Run `set_up` `setups` times and `batch` until `seconds` of timed work
/// have passed. The first set-up precedes the timed phase; the others
/// run between batches at evenly spaced points of it, and their time is
/// excluded from timed_s: machine speed on a shared VM flips between
/// regimes lasting seconds, so set-ups bunched into the run's first
/// second would sample one regime while the timed ops sample many.
/// `batch` gets the deadline (steady ns) and should return soon after
/// it passes.
Phases run_phases(double seconds, int setups,
                  const std::function<void()>& set_up,
                  const std::function<void(u64 deadline_ns)>& batch);

/// Checked ops of one run: every op's output is compared with its
/// reference and a mismatch counts as one failed op.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A metric BENCHMARK.json names, with the unit it is printed in.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// `measured` checked against `specs` and put in their order: each
/// measured name must be a spec's, once, in the spec's unit. A spec
/// nobody measured is an error unless `idle_reads_zero`: then it names
/// a layer this workload never calls, and it reads 0. Throws
/// hulkv::SimError on any mismatch, so a run never prints a result
/// line that lacks a metric of the manifest.
std::vector<Metric> conform(const std::vector<Metric>& measured,
                            const std::vector<MetricSpec>& specs,
                            bool idle_reads_zero);

/// The result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{"<name>":{"value":..,"unit":".."},...}} with every value
/// printed in its shortest exact decimal form.
std::string result_json(bool correct, const Tally& tally,
                        const std::vector<Metric>& metrics);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// One traced call: name, [start, end) in steady ns, the enclosing span
/// (kNoParent at top level), the op it belongs to, and the Chrome-trace
/// lane it renders on.
struct Span {
  static constexpr u32 kNoParent = ~0u;
  std::string name;
  u64 start_ns = 0;
  u64 end_ns = 0;
  u32 parent = kNoParent;
  u64 op = 0;
  u32 lane = 1;
  std::string args;  // extra Chrome-trace args members ("" = none)
};

/// In-memory span recorder for one thread. Disabled, every call is a
/// branch and nothing is stored; enabled, spans stay in memory until
/// write_chrome_trace() at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span nested in the innermost open one.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, u64 op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // nullptr when tracing is off
    u32 index_ = 0;
  };

  /// Record a finished span with explicit times (e.g. a server-side
  /// request record). Returns its index.
  u32 add(Span span);

  /// Append Chrome-trace args members to the most recent span.
  void annotate_last(const std::string& args) {
    if (enabled_ && !spans_.empty()) spans_.back().args = args;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: number of calls and summed self time (duration
  /// minus the part of it covered by child spans).
  struct Layer {
    u64 calls = 0;
    u64 self_ns = 0;
  };
  std::map<std::string, Layer> layers() const;

  /// Smallest share of a `name` span's duration covered by its child
  /// spans, over all `name` spans (1.0 when there are none).
  double min_child_coverage(std::string_view name) const;

  /// Perfetto/Chrome-loadable trace: one complete ("X") event per span
  /// with its op id, span index and parent in args; `other_data` is a
  /// JSON object text stored under "otherData".
  void write_chrome_trace(const std::string& path,
                          const std::string& other_data) const;

 private:
  /// Covered nanoseconds of each span by its children, by index.
  std::vector<u64> child_cover() const;

  bool enabled_;
  std::vector<Span> spans_;
  u32 current_ = Span::kNoParent;
};

/// Mean self time per call of span `name`, in ns (0 when never called).
double mean_self_ns(const std::map<std::string, Tracer::Layer>& layers,
                    const std::string& name);

}  // namespace perfbench
