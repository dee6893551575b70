// serve_mixed: the simulation-as-a-service path (hulkv::serve).
//
// An in-process serve::Server (Unix socket, 2 workers) is driven by one
// generator thread in a closed loop over two connections with distinct
// client ids. The miss connection always has one no-cache kRun request
// in flight (a warm fork plus a full host run); the hit connection
// always has three cached ones. Every point is drawn uniformly from the
// 30-point grid by the seed. With one simulation at a time, one worker
// is always free for the hits, and the threads on the hit path (reader,
// worker, generator) stay busy instead of sleeping between requests, so
// cache hits time the request path (socket, admission, queue hand-off,
// cache probe) and misses time warm fork + execute.
#include <malloc.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <unordered_map>

#include "batch/batch.hpp"
#include "common/rng.hpp"
#include "kernels/kernel.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "telemetry/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hulkv;

constexpr u32 kWorkers = 2;
constexpr u32 kHitsInFlight = 3;      // cached requests on the hit connection
constexpr u32 kMissClient = 1;        // client id of the no-cache connection
constexpr u32 kHitClient = 2;         // client id of the cached connection
// Below the server's default client quota (8): the server releases a
// request's quota slot only after writing its response, so a client that
// refills on every response while at the quota can be refused.
constexpr u32 kFillInFlight = 4;
constexpr u32 kFillClient = 100;      // client id of the set-up cache fill
// Batches end every 250 ms with nothing in flight, so a set-up between
// two batches can replace the server.
constexpr u64 kBatchNs = 250'000'000;
constexpr size_t kHitSamples = 1u << 16;  // hit latencies kept per run
// Server-side request records kept (the newest ones). Every
// kJoinBatches batches (4 s) the traced run drains them and joins the
// newest kTraceRing client samples with them; a drain costs ~15 µs per
// record, so draining everything would double the run.
constexpr u32 kTraceRing = 1u << 14;
constexpr u64 kJoinBatches = 16;

/// Server-side record of one request (from the observability plane).
struct ServerRecord {
  u64 start_ns = 0;  // steady ns
  u64 total_ns = 0;
  u64 stage_ns[serve::obs::kNumStages] = {};
};

/// One timed request as the client saw it.
struct Sample {
  u64 request_id = 0;
  u32 client_id = 0;
  u32 lane = 0;  // Chrome-trace lane: one per in-flight slot
  bool miss = false;
  u64 send_ns = 0;
  u64 recv_ns = 0;
};

/// A request awaiting its response.
struct InFlight {
  u64 request_id = 0;
  size_t point = 0;  // grid index
  u32 slot = 0;      // in-flight slot of its connection
  u64 send_ns = 0;
};

/// One generator connection: its client, whether it sends no-cache
/// requests, how many it keeps in flight, and those awaiting responses.
struct Stream {
  serve::Client client;
  u32 client_id = 0;
  bool miss = false;
  u32 depth = 0;
  std::vector<InFlight> in_flight;
};

u64 key_of(u32 client_id, u64 request_id) {
  return (static_cast<u64>(client_id) << 48) ^ request_id;
}

u64 json_u64(const telemetry::json::Value& obj, std::string_view key) {
  const telemetry::json::Value* v = obj.find(key);
  HULKV_CHECK(v != nullptr && v->is(telemetry::json::Kind::kNumber),
              "serve_mixed: missing number " + std::string(key));
  return static_cast<u64>(v->as_number());
}

class ServeMixed {
 public:
  explicit ServeMixed(const Options& options)
      : options_(options),
        tracer_(options.trace),
        miss_rng_(options.seed),
        hit_rng_(~options.seed),
        hit_us_(kHitSamples, options.seed),
        socket_path_(options.out_dir + "/serve-" + std::to_string(getpid()) +
                     ".sock"),
        grid_(catalogue_grid()) {}

  ~ServeMixed() { tear_down(); }
  ServeMixed(const ServeMixed&) = delete;
  ServeMixed& operator=(const ServeMixed&) = delete;

  RunResult run() {
    RunResult result;
    if (tracer_.enabled()) time_snapshot_capture();
    // Cache counters at the start of the timed phase (a traced run has
    // one set-up, so one server answers its whole timed phase).
    std::string before;
    const Phases phases = run_phases(
        options_.seconds, tracer_.enabled() ? 1 : kSetupRepeats,
        [&] {
          if (!set_up()) result.correct = false;
        },
        [&](u64 deadline) {
          if (tracer_.enabled() && before.empty()) {
            before = server_->stats_json();
          }
          batch(result.tally, std::min(deadline, now_ns() + kBatchNs));
          if (tracer_.enabled() && ++batches_ % kJoinBatches == 0) {
            join_records(false);
          }
        });
    const double wall_s = phases.timed_s;
    if (result.tally.failed != 0) result.correct = false;
    const double ops = static_cast<double>(result.tally.attempted);

    if (!tracer_.enabled()) {
      // One no-cache request is always in flight, so sim_mips is the
      // speed of the miss path (warm fork + execute) and ops_per_s,
      // ~550 hits per miss, that of the hit path.
      result.metrics = {
          {"setup_s", median(phases.setup_s), "s"},
          {"ops_per_s", throughput(ops, wall_s), "1/s"},
          {"sim_mips", throughput(miss_instret_, wall_s) / 1e6, "MIPS"},
          {"peak_rss_mb", peak_rss_mb(), "MiB"},
      };
      return result;
    }
    traced_metrics(result, before, throughput(ops, wall_s));
    return result;
  }

 private:
  void tear_down() {
    streams_.clear();
    if (server_) server_->stop();
    server_.reset();
  }

  /// Replace the server by a fresh one, fill its warm pool and result
  /// cache with every grid point, and connect the generator's clients.
  /// Returns false when a row differs from the first set-up's row for
  /// the same point.
  bool set_up() {
    tear_down();
    serve::ServerConfig config;
    config.unix_path = socket_path_;
    config.workers = kWorkers;
    config.obs = tracer_.enabled();
    if (tracer_.enabled()) config.trace_ring = kTraceRing;
    server_ = std::make_unique<serve::Server>(config);
    server_->start();

    serve::Client fill = serve::Client::connect_unix(socket_path_);
    const bool first = reference_.empty();
    reference_.resize(grid_.size());
    bool ok = true;
    size_t sent = 0, received = 0;
    while (received < grid_.size()) {
      while (sent < grid_.size() && sent - received < kFillInFlight) {
        serve::Request request;
        request.type = serve::MsgType::kRun;
        request.client_id = kFillClient;
        request.request_id = sent;
        request.point = grid_[sent];
        fill.send(request);
        ++sent;
      }
      serve::Response response;
      HULKV_CHECK(fill.recv(&response), "serve_mixed: server closed");
      ++received;
      const size_t index = response.request_id;
      const bool good = response.status == serve::Status::kOk &&
                        response.rows.size() == 1 && index < grid_.size();
      if (!good) {
        ok = false;
        continue;
      }
      if (first) {
        reference_[index] = response.rows[0];
      } else {
        ok = ok && response.rows[0] == reference_[index];
      }
    }
    streams_.push_back({serve::Client::connect_unix(socket_path_),
                        kMissClient, true, 1, {}});
    streams_.push_back({serve::Client::connect_unix(socket_path_),
                        kHitClient, false, kHitsInFlight, {}});
    return ok;
  }

  /// Send the next request of `s`, on the lowest free in-flight slot.
  void send_next(Stream& s) {
    InFlight f;
    while (std::any_of(s.in_flight.begin(), s.in_flight.end(),
                       [&](const InFlight& o) { return o.slot == f.slot; })) {
      ++f.slot;
    }
    f.request_id = ++last_request_id_;
    f.point = static_cast<size_t>(
        (s.miss ? miss_rng_ : hit_rng_).next_below(grid_.size()));
    serve::Request request;
    request.type = serve::MsgType::kRun;
    request.client_id = s.client_id;
    request.request_id = f.request_id;
    request.flags = s.miss ? serve::kFlagNoCache : 0;
    request.point = grid_[f.point];
    f.send_ns = now_ns();
    s.client.send(request);
    s.in_flight.push_back(f);
  }

  /// Keep every connection's requests in flight until `end` (steady ns),
  /// refilling each on its response, then wait for the outstanding ones.
  void batch(Tally& tally, u64 end) {
    for (Stream& s : streams_) {
      while (s.in_flight.size() < s.depth) send_next(s);
    }
    std::array<pollfd, 2> fds{};
    HULKV_CHECK(streams_.size() == fds.size(), "serve_mixed: no clients");
    for (;;) {
      bool waiting = false;
      for (size_t c = 0; c < fds.size(); ++c) {
        const bool busy = !streams_[c].in_flight.empty();
        fds[c] = {busy ? streams_[c].client.fd() : -1, POLLIN, 0};
        waiting = waiting || busy;
      }
      if (!waiting) return;
      HULKV_CHECK(::poll(fds.data(), fds.size(), -1) > 0,
                  "serve_mixed: poll failed");
      for (size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Stream& s = streams_[c];
        serve::Response response;
        HULKV_CHECK(s.client.recv(&response), "serve_mixed: server closed");
        const u64 t = now_ns();
        const auto it = std::find_if(
            s.in_flight.begin(), s.in_flight.end(), [&](const InFlight& f) {
              return f.request_id == response.request_id;
            });
        if (it == s.in_flight.end()) {
          tally.record(false);
          continue;
        }
        const InFlight f = *it;
        s.in_flight.erase(it);
        // A hit must return the row the miss of the same point produced.
        const bool ok = response.status == serve::Status::kOk &&
                        response.rows.size() == 1 &&
                        response.rows[0] == reference_[f.point];
        tally.record(ok);
        const double ns = static_cast<double>(t - f.send_ns);
        if (s.miss) {
          miss_ms_.push_back(ns / 1e6);
          if (ok) {
            miss_instret_ += static_cast<double>(response.rows[0].instret);
          }
        } else {
          hit_us_.add(ns / 1e3);
        }
        if (tracer_.enabled()) {
          const Sample sample{f.request_id, s.client_id,
                              s.miss ? 1 : 2 + f.slot, s.miss, f.send_ns, t};
          if (traced_.size() < kTraceRing) {
            traced_.push_back(sample);
          } else {
            traced_[traced_count_ % kTraceRing] = sample;
          }
          ++traced_count_;
        }
        if (t < end) send_next(s);
      }
    }
  }

  void add_percentile(RunResult& result, const std::string& name,
                      const std::vector<double>& values, double p,
                      const char* unit) {
    const std::optional<double> v = percentile(values, p);
    HULKV_CHECK(v.has_value(), "serve_mixed: " + name + " refused: " +
                                   std::to_string(values.size()) +
                                   " samples leave fewer than " +
                                   std::to_string(kMinTail) + " beyond it");
    result.metrics.push_back({name, *v, unit});
  }

  /// Time SocSnapshot::capture on the same warm state the server's warm
  /// pool captures (set-up + one warm run per point); the server's own
  /// capture happens inside the library, out of the benchmark's reach.
  void time_snapshot_capture() {
    for (size_t i = 0; i < grid_.size(); ++i) {
      core::HulkVSoc soc(serve::point_config(grid_[i]));
      const serve::WorkloadSetup setup =
          serve::setup_workload(grid_[i].workload, soc);
      kernels::run_host_program(soc, setup.program.words, setup.args);
      const Tracer::Scope s(tracer_, "snapshot.capture", i);
      snapshot_bytes_ += batch::SocSnapshot::capture(soc).size_bytes();
    }
  }

  /// Server-side records of the newest kTraceRing requests answered
  /// since the previous drain (drained from the observability plane;
  /// older ones have been overwritten), keyed by (client id, request id).
  std::unordered_map<u64, ServerRecord> drain_records() {
    std::unordered_map<u64, ServerRecord> out;
    serve::obs::ServeObs& obs = server_->observability();
    const telemetry::json::Value doc =
        telemetry::json::parse(obs.render_trace_json());
    const telemetry::json::Value* events = doc.find("traceEvents");
    HULKV_CHECK(events != nullptr, "serve_mixed: trace has no traceEvents");
    for (const telemetry::json::Value& e : events->as_array()) {
      const telemetry::json::Value* args = e.find("args");
      if (args == nullptr || args->find("request_id") == nullptr) continue;
      ServerRecord r;
      r.start_ns = obs.steady_anchor_ns() + json_u64(*args, "start_ns");
      r.total_ns = json_u64(*args, "total_ns");
      const telemetry::json::Value* stages = args->find("stages_ns");
      HULKV_CHECK(stages != nullptr, "serve_mixed: record without stages");
      for (size_t st = 0; st < serve::obs::kNumStages; ++st) {
        r.stage_ns[st] = json_u64(
            *stages, serve::obs::stage_name(static_cast<serve::obs::Stage>(st)));
      }
      out[key_of(static_cast<u32>(json_u64(*args, "client_id")),
                 json_u64(*args, "request_id"))] = r;
    }
    return out;
  }

  /// p50 of one stage from the kMetrics exposition, in ns.
  double scraped_stage_p50(serve::obs::Stage stage) {
    serve::Request request;
    request.type = serve::MsgType::kMetrics;
    request.client_id = kMissClient;
    request.request_id = ++last_request_id_;
    request.point = {0, 0, 0};  // inline ops carry an all-zero point
    const serve::Response response = streams_[0].client.call(request);
    HULKV_CHECK(response.status == serve::Status::kOk,
                "serve_mixed: kMetrics refused");
    const std::string needle = std::string("hulkv_serve_stage_latency_ns{stage=\"") +
                               serve::obs::stage_name(stage) +
                               "\",quantile=\"0.5\"} ";
    const size_t at = response.text.find(needle);
    HULKV_CHECK(at != std::string::npos,
                "serve_mixed: exposition lacks " + needle);
    return std::stod(response.text.substr(at + needle.size()));
  }

  /// Join the client samples kept since the last join with the server's
  /// records and add their stage times to the per-layer samples; with
  /// `spans`, also record both sides as Chrome-trace spans.
  void join_records(bool spans) {
    using serve::obs::Stage;
    const auto records = drain_records();
    for (const Sample& s : traced_) {
      const auto it = records.find(key_of(s.client_id, s.request_id));
      if (it == records.end()) continue;
      const double rtt = static_cast<double>(s.recv_ns - s.send_ns);
      const ServerRecord& r = it->second;
      u64 stage_sum = 0;
      for (u64 ns : r.stage_ns) stage_sum += ns;
      auto stage = [&](Stage st) {
        return static_cast<double>(r.stage_ns[static_cast<size_t>(st)]);
      };
      if (s.miss) {
        fork_ms_.push_back(stage(Stage::kWarmFork) / 1e6);
        execute_ms_.push_back(stage(Stage::kExecute) / 1e6);
      } else {
        lookup_us_.push_back(stage(Stage::kCacheLookup) / 1e3);
        wire_us_.push_back((rtt - static_cast<double>(stage_sum)) / 1e3);
      }
      if (!spans) continue;
      const u32 client_span = tracer_.add(
          {"serve.request", s.send_ns, s.recv_ns, Span::kNoParent,
           s.request_id, s.lane,
           std::string("\"miss\":") + (s.miss ? "true" : "false")});
      std::string args;
      for (size_t st = 0; st < serve::obs::kNumStages; ++st) {
        args += std::string(st == 0 ? "" : ",") + "\"" +
                serve::obs::stage_name(static_cast<Stage>(st)) +
                "_ns\":" + std::to_string(r.stage_ns[st]);
      }
      tracer_.add({"serve.server", r.start_ns, r.start_ns + r.total_ns,
                   client_span, s.request_id, s.lane, args});
    }
    traced_.clear();
    traced_count_ = 0;
  }

  void traced_metrics(RunResult& result, const std::string& stats_before,
                      double traced_ops_per_s) {
    using serve::obs::Stage;
    // The scrape's round trip comes first: by its answer the server has
    // published the record of every request answered before it.
    const double queue_wait_ms = scraped_stage_p50(Stage::kQueueWait) / 1e6;
    join_records(true);

    const telemetry::json::Value before = telemetry::json::parse(stats_before);
    const telemetry::json::Value after =
        telemetry::json::parse(server_->stats_json());
    const double hits = static_cast<double>(json_u64(after, "cache_hits") -
                                            json_u64(before, "cache_hits"));
    const std::vector<std::pair<const char*, std::vector<double>*>> medians = {
        {"serve.cache_lookup_us", &lookup_us_},
        {"serve.warm_fork_ms", &fork_ms_},
        {"serve.execute_ms", &execute_ms_},
        {"serve.wire_us", &wire_us_}};
    result.metrics = {{"traced.ops_per_s", traced_ops_per_s, "1/s"}};
    // Client-observed latencies of the traced run. The end-to-end figures
    // are throughputs; these say how hit and miss requests spread.
    add_percentile(result, "serve.miss_p50_ms", miss_ms_, 50, "ms");
    add_percentile(result, "serve.miss_p90_ms", miss_ms_, 90, "ms");
    add_percentile(result, "serve.hit_p50_us", hit_us_.values(), 50, "us");
    add_percentile(result, "serve.hit_p99_us", hit_us_.values(), 99, "us");
    for (const auto& [name, values] : medians) {
      const std::string n = name;
      HULKV_CHECK(!values->empty(), "serve_mixed: no joined sample for " + n);
      result.metrics.push_back(
          {n, median(*values), n.substr(n.rfind('_') + 1)});
    }
    result.metrics.insert(
        result.metrics.end(),
        {
            {"serve.queue_wait_ms", queue_wait_ms, "ms"},
            {"snapshot.capture_ms",
             mean_self_ns(tracer_.layers(), "snapshot.capture") / 1e6, "ms"},
            {"snapshot.bytes", static_cast<double>(snapshot_bytes_),
             "bytes"},
            // Share of the timed kRun requests the result cache served.
            {"serve.cache_hit_ratio",
             hits / static_cast<double>(result.tally.attempted), "ratio"},
            {"serve.warm_pool_cold_builds",
             static_cast<double>(json_u64(after, "cold_builds")), "count"},
        });
    tracer_.write_chrome_trace(trace_path(options_),
                               "{\"workload\":\"serve_mixed\"}");
  }

  const Options& options_;
  Tracer tracer_;
  Xoshiro256 miss_rng_;  // points of the no-cache connection
  Xoshiro256 hit_rng_;   // points of the cached connection
  Reservoir hit_us_;     // client latency of hits, µs
  std::vector<double> miss_ms_;  // client latency of misses, ms
  double miss_instret_ = 0.0;    // host instructions the misses retired
  std::string socket_path_;
  std::vector<serve::PointParams> grid_;
  std::vector<serve::ResultRow> reference_;  // by grid index
  std::unique_ptr<serve::Server> server_;
  std::vector<Stream> streams_;  // [0] no-cache, [1] cached
  // Traced run: the newest kTraceRing samples since the last join, and
  // the joined per-layer samples.
  std::vector<Sample> traced_;
  u64 traced_count_ = 0;
  u64 batches_ = 0;
  std::vector<double> lookup_us_, wire_us_, fork_ms_, execute_ms_;
  u64 last_request_id_ = 0;
  u64 snapshot_bytes_ = 0;
};

}  // namespace

RunResult run_serve_mixed(const Options& options) {
  // One malloc arena, set before the server starts its threads: with
  // per-thread arenas the peak footprint depends on which thread freed
  // what (41-46 MiB over five runs, against 34-36 MiB), and peak_rss_mb
  // must not depend on thread interleaving. The time metrics did not
  // move with it (README.md). The other workloads run on one thread and
  // use the main arena either way.
  mallopt(M_ARENA_MAX, 1);
  ServeMixed bench(options);
  return bench.run();
}

}  // namespace perfbench
