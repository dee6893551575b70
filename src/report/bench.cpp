// The bench lifecycle (report::run_bench): the one place the shared
// bench flags switch the instrumentation layers on and, after the run,
// drain them in order.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "isa/threaded.hpp"
#include "profile/profile.hpp"
#include "report/report.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_trace.hpp"

namespace hulkv::report {

namespace {

void configure(const BenchOptions& options) {
  if (!options.tier.empty()) {
    isa::set_default_tier(isa::parse_tier(options.tier));
  }
  if (options.profile) {
    profile::session().reset();
    profile::session().enable();
  }
  if (options.telemetry) {
    telemetry::registry().reset();
    telemetry::registry().enable();
  }
  if (!options.trace_path.empty()) {
    trace::sink().clear();
    trace::sink().enable();
  }
}

void finish_profile(MetricsReport& rep, const BenchOptions& options) {
  profile::Session& s = profile::session();
  s.flush_trace_counters();
  const std::string err = s.check_conservation();
  HULKV_CHECK(err.empty(), "profile conservation violated: " + err);
  s.add_report_tables(rep);
  if (options.profile_path.empty()) return;
  const std::string folded_path = options.profile_path + ".folded";
  const std::string annotated_path = options.profile_path + ".annotated.txt";
  std::ofstream folded(folded_path);
  HULKV_CHECK(folded.good(), "cannot write " + folded_path);
  s.write_folded(folded);
  std::ofstream annotated(annotated_path);
  HULKV_CHECK(annotated.good(), "cannot write " + annotated_path);
  s.write_annotated(annotated);
  std::printf("[profile] wrote %s and %s\n", folded_path.c_str(),
              annotated_path.c_str());
}

void finish_report(const MetricsReport& rep, const BenchOptions& options) {
  std::cout << rep.to_text();
  if (options.json_path.empty()) return;
  rep.write_json(options.json_path);
  std::cout << "\n[report] wrote " << options.json_path << "\n";
}

void finish_telemetry(const MetricsReport& rep, const BenchOptions& options) {
  telemetry::Registry& reg = telemetry::registry();
  const std::string path = telemetry::append_manifest(
      options.telemetry_dir.empty() ? std::string("runs")
                                    : options.telemetry_dir,
      telemetry::build_manifest(rep, reg));
  // stderr, not stdout: bench stdout must stay byte-identical with
  // telemetry on or off (pinned by determinism_test).
  std::fprintf(stderr, "[telemetry] appended run manifest to %s\n",
               path.c_str());
  reg.disable();
}

}  // namespace

BenchOptions parse_bench_args(int& argc, char** argv) {
  BenchOptions options;
  cli::Parser parser("bench");
  parser
      .add_string("--json", &options.json_path,
                  "write the report as BENCH-style JSON to this path")
      .add_string("--trace", &options.trace_path,
                  "write a Perfetto/Chrome event trace to this path")
      .add_u32("--jobs", &options.jobs,
               "sweep worker count (0 = hardware concurrency)")
      .add_string("--tier", &options.tier,
                  "execution tier: interp | threaded")
      .add_optional_value("--profile", &options.profile,
                          &options.profile_path,
                          "cycle-attribution profiler (=PATH writes "
                          ".folded/.annotated.txt)")
      .add_optional_value("--telemetry", &options.telemetry,
                          &options.telemetry_dir,
                          "append a run manifest (=DIR overrides runs/)");
  // Unknown flags belong to the wrapped tool (e.g. google-benchmark);
  // a malformed value on one of *our* flags is still a hard error.
  if (!parser.parse(argc, argv, cli::Parser::OnUnknown::kIgnore)) {
    throw SimError(parser.error());
  }
  argc = 1;
  for (char* arg : parser.unknown()) argv[argc++] = arg;
  return options;
}

int run_bench(int& argc, char** argv, const BenchBody& body) {
  try {
    BenchOptions options = parse_bench_args(argc, argv);
    // The trace sink and the profiler are single-threaded, so an
    // instrumented run sweeps serially unless --jobs says otherwise (an
    // explicit --jobs N > 1 meets batch::run_jobs' refusal).
    if (options.jobs == 0 &&
        (options.profile || !options.trace_path.empty())) {
      options.jobs = 1;
    }
    configure(options);
    MetricsReport rep = body(options);
    if (options.profile) finish_profile(rep, options);
    finish_report(rep, options);
    if (options.telemetry) finish_telemetry(rep, options);
    if (!options.trace_path.empty()) {
      trace::write_chrome_trace_file(options.trace_path, trace::sink());
    }
    return 0;
  } catch (const SimError& e) {
    std::cout.flush();
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace hulkv::report
