// Perfetto / Chrome `trace_event` JSON: the repo's one trace writer.
//
// The output is the JSON-object form ({"traceEvents": [...]}) that both
// chrome://tracing and https://ui.perfetto.dev load directly. Every
// Chrome trace the repo produces is written by ChromeTraceWriter, which
// knows the three processes a document can hold:
//
//   pid 1  hulkv-soc                 simulated time: one named thread per
//                                    TraceSink track (1 cycle = 1 us), so
//                                    the SoC shows up as parallel
//                                    swimlanes (host core, PMCA cores,
//                                    caches, memories, DMAs, runtime)
//   pid 2  hulkv-host (wall clock)   the telemetry registry's host spans
//                                    (program load/analyze, translate,
//                                    dispatch chunks, snapshot ops, batch
//                                    jobs), one lane per host thread
//   pid 3  hulkv-serve (wall clock)  completed serve requests (the serve
//                                    daemon's kTrace payload)
//
// The wall-clock processes run on real nanoseconds, not simulated
// cycles. Each carries a `clock_anchor` instant with the wall-epoch /
// steady-clock pair its span timestamps are relative to, so
// post-processing can place spans in absolute time and correlate them
// with the simulated-time process and with run manifests.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/trace.hpp"

namespace hulkv::trace {

/// The wall-clock processes of a Chrome trace document.
enum class WallProcess : u8 {
  kHost,   // pid 2: telemetry host spans
  kServe,  // pid 3: serve requests
};

/// Streams one Chrome trace_event document. Event names and categories
/// are internal identifiers and are written unescaped; free text (track
/// names) is JSON-quoted.
class ChromeTraceWriter {
 public:
  /// Opens the document on `os`; finish() closes it.
  explicit ChromeTraceWriter(std::ostream& os);

  /// pid 1: one thread per track of `sink`, then every recorded event.
  void sim_process(const TraceSink& sink);

  /// pid 2: the telemetry registry's retained host spans (flushed and
  /// copied at this call). Writes nothing when telemetry never
  /// collected a span.
  void host_spans();

  /// Metadata of a wall-clock process: its name, `lanes` threads and
  /// its clock_anchor (span timestamps are steady-clock ns relative to
  /// `steady_anchor_ns`; `wall_epoch_ns` is the matching calendar
  /// instant).
  void wall_process(WallProcess process, u32 lanes, u64 wall_epoch_ns,
                    u64 steady_anchor_ns);

  /// One interval on 0-based lane `lane` of a wall-clock process.
  /// `args_json` is a JSON object.
  void wall_span(WallProcess process, std::string_view name, u32 lane,
                 u64 start_ns, u64 dur_ns, std::string_view args_json);

  /// Closes the event array and the document.
  void finish();

 private:
  /// Separator before the next record.
  void next();
  /// `{"name":..,"cat":..,"pid":..,"tid":..,"ts":` of an event record.
  void head(std::string_view name, std::string_view cat, u32 pid, u32 tid);

  std::ostream& os_;
  bool first_ = true;
};

/// The --trace file: the simulated-time process plus any telemetry host
/// spans.
void write_chrome_trace(std::ostream& os, const TraceSink& sink);

/// Convenience file writer. Throws SimError when the file cannot be
/// opened.
void write_chrome_trace_file(const std::string& path, const TraceSink& sink);

}  // namespace hulkv::trace
