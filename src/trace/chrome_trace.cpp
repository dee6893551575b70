#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <vector>

#include "common/json_quote.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::trace {

namespace {

constexpr u32 kSimPid = 1;

/// Identity of a wall-clock process in the document.
struct WallInfo {
  u32 pid;
  const char* name;
  const char* cat;
  const char* lane_prefix;
};

/// Indexed by WallProcess.
constexpr WallInfo kWallInfo[] = {
    {2, "hulkv-host (wall clock)", "hulkv-host", "host-thread-"},
    {3, "hulkv-serve (wall clock)", "hulkv-serve", "requests-"},
};

const WallInfo& wall_info(WallProcess process) {
  return kWallInfo[static_cast<size_t>(process)];
}

/// Wall-clock ns as trace_event microseconds.
void write_ns_as_us(std::ostream& os, u64 ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  os << buf;
}

void write_sim_args(std::ostream& os, const Event& e) {
  if (e.type == Ev::kMemXact) {
    const XactArg x = unpack_xact_arg(e.arg);
    os << ",\"args\":{\"bytes\":" << e.value
       << ",\"write\":" << (x.write ? 1 : 0) << ",\"bursts\":" << x.bursts
       << ",\"refresh_collisions\":" << x.refresh_collisions << "}";
    return;
  }
  os << ",\"args\":{\"value\":" << e.value;
  if (e.arg != 0) os << ",\"arg\":" << e.arg;
  os << "}";
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

void ChromeTraceWriter::next() {
  if (!first_) os_ << ",\n";
  first_ = false;
}

void ChromeTraceWriter::head(std::string_view name, std::string_view cat,
                             u32 pid, u32 tid) {
  next();
  os_ << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
      << "\",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":";
}

void ChromeTraceWriter::sim_process(const TraceSink& sink) {
  // One named thread per track so viewers show labelled swimlanes.
  const auto& tracks = sink.track_names();
  for (u32 t = 0; t < tracks.size(); ++t) {
    next();
    os_ << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kSimPid
        << ",\"tid\":" << (t + 1)
        << ",\"args\":{\"name\":" << json_quote(tracks[t]) << "}}";
  }
  next();
  os_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSimPid
      << ",\"args\":{\"name\":\"hulkv-soc\"}}";

  // Counter events carry deltas in the sink; the trace_event "C" phase
  // wants absolute values, so accumulate per (track, type).
  std::vector<std::array<u64, kNumEventTypes>> totals(tracks.size());

  for (const Event& e : sink.events()) {
    head(event_name(e.type), "hulkv", kSimPid, e.track + 1);
    os_ << e.ts;
    switch (event_phase(e.type)) {
      case Phase::kComplete:
        os_ << ",\"ph\":\"X\",\"dur\":" << e.dur;
        write_sim_args(os_, e);
        break;
      case Phase::kInstant:
        os_ << ",\"ph\":\"i\",\"s\":\"t\"";
        write_sim_args(os_, e);
        break;
      case Phase::kCounter: {
        u64& total = totals[e.track][static_cast<size_t>(e.type)];
        total += e.value;
        os_ << ",\"ph\":\"C\",\"args\":{\"value\":" << total << "}";
        break;
      }
    }
    os_ << "}";
  }
}

void ChromeTraceWriter::wall_process(WallProcess process, u32 lanes,
                                     u64 wall_epoch_ns,
                                     u64 steady_anchor_ns) {
  const WallInfo& info = wall_info(process);
  next();
  os_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << info.pid
      << ",\"args\":{\"name\":\"" << info.name << "\"}}";
  for (u32 lane = 0; lane < lanes; ++lane) {
    next();
    os_ << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << info.pid
        << ",\"tid\":" << (lane + 1) << ",\"args\":{\"name\":\""
        << info.lane_prefix << lane << "\"}}";
  }
  next();
  os_ << "{\"name\":\"clock_anchor\",\"cat\":\"" << info.cat
      << "\",\"ph\":\"i\",\"s\":\"p\",\"pid\":" << info.pid
      << ",\"tid\":1,\"ts\":0,\"args\":{\"wall_epoch_ns\":" << wall_epoch_ns
      << ",\"steady_anchor_ns\":" << steady_anchor_ns << "}}";
}

void ChromeTraceWriter::wall_span(WallProcess process, std::string_view name,
                                  u32 lane, u64 start_ns, u64 dur_ns,
                                  std::string_view args_json) {
  const WallInfo& info = wall_info(process);
  head(name, info.cat, info.pid, lane + 1);
  write_ns_as_us(os_, start_ns);
  os_ << ",\"ph\":\"X\",\"dur\":";
  write_ns_as_us(os_, dur_ns);
  os_ << ",\"args\":" << args_json << "}";
}

void ChromeTraceWriter::host_spans() {
  const std::vector<telemetry::SpanRecord> spans =
      telemetry::registry().spans();
  if (spans.empty()) return;
  u32 max_thread = 0;
  for (const telemetry::SpanRecord& s : spans) {
    max_thread = std::max(max_thread, static_cast<u32>(s.thread));
  }
  wall_process(WallProcess::kHost, max_thread + 1,
               telemetry::registry().wall_anchor_ns(),
               telemetry::registry().steady_anchor_ns());
  for (const telemetry::SpanRecord& s : spans) {
    wall_span(WallProcess::kHost, telemetry::phase_name(s.phase), s.thread,
              s.start_ns, s.dur_ns,
              "{\"depth\":" + std::to_string(s.depth) + "}");
  }
}

void ChromeTraceWriter::finish() { os_ << "]}\n"; }

void write_chrome_trace(std::ostream& os, const TraceSink& sink) {
  ChromeTraceWriter out(os);
  out.sim_process(sink);
  out.host_spans();
  out.finish();
}

void write_chrome_trace_file(const std::string& path, const TraceSink& sink) {
  std::ofstream out(path);
  if (!out) throw SimError("cannot open trace output file: " + path);
  write_chrome_trace(out, sink);
}

}  // namespace hulkv::trace
