#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "report/report.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SimError("serve: " + what + ": " + std::strerror(errno));
}

void set_cloexec(int fd) { fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// First-failure-wins: a job's status moves away from kOk exactly once,
/// so concurrent point failures cannot overwrite each other.
void try_set_status(std::atomic<u8>& status, Status value) {
  u8 expected = static_cast<u8>(Status::kOk);
  status.compare_exchange_strong(expected, static_cast<u8>(value));
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;
  /// Cleared on the first failed write: later responses for this
  /// connection are dropped instead of spamming errors (the peer is
  /// gone; its requests still count as answered for drain purposes).
  std::atomic<bool> alive{true};
  /// Admitted-but-unanswered requests on this connection. Once the
  /// reader has seen EOF and this reaches zero, the server half-closes
  /// the write side so a pipelining client's drain loop sees EOF after
  /// the last response instead of blocking forever.
  std::atomic<u32> pending{0};
  std::atomic<bool> read_done{false};
  std::thread reader;

  void finish_if_drained() {
    if (read_done.load() && pending.load() == 0) {
      ::shutdown(fd, SHUT_WR);
    }
  }

  void send(const std::vector<u8>& payload) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!alive.load(std::memory_order_relaxed)) return;
    try {
      write_frame(fd, payload);
    } catch (const SimError&) {
      alive.store(false, std::memory_order_relaxed);
    }
  }
};

struct Server::Job {
  std::shared_ptr<Connection> conn;
  Request request;
  std::vector<PointParams> points;
  std::vector<ResultRow> rows;  // slot-per-point, index order
  std::atomic<u32> remaining{0};
  std::atomic<u8> status{static_cast<u8>(Status::kOk)};
  u64 deadline_ns = 0;  // steady ns; 0 = no deadline
  u64 admit_ns = 0;

  // Trace context (DESIGN.md §17): written only when the plane is
  // enabled. arrive/admission are reader-thread-only; the per-stage
  // accumulators are summed by workers (relaxed — finalize_job reads
  // them after the last remaining.fetch_sub, an acq/rel edge).
  u64 arrive_ns = 0;
  u64 admission_ns = 0;
  std::atomic<u64> queue_wait_ns{0};
  std::atomic<u64> cache_lookup_ns{0};
  std::atomic<u64> warm_fork_ns{0};
  std::atomic<u64> execute_ns{0};
  std::atomic<u32> chunks{0};
  std::atomic<u32> cache_hits{0};
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  obs::ServeObs::Config obs_config;
  obs_config.enabled = config_.obs;
  obs_config.ring_capacity = config_.trace_ring == 0 ? 1 : config_.trace_ring;
  obs_config.slow_threshold_ns = u64{config_.slow_ms} * 1'000'000;
  obs_config.slow_log_path = config_.slow_log_path;
  obs_ = std::make_unique<obs::ServeObs>(obs_config);
}

Server::~Server() {
  if (started_ && !stopped_) stop();
}

void Server::start() {
  HULKV_CHECK(!started_, "serve: server already started");
  start_ns_ = telemetry::now_ns();
  if (!config_.telemetry_dir.empty() && !telemetry::enabled()) {
    telemetry::registry().reset();
    telemetry::registry().enable();
  }

  if (pipe(wake_pipe_) != 0) throw_errno("pipe");
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);
  // Nonblocking write end: request_stop() must never block, even from
  // a signal handler with the pipe already full.
  fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);

  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    HULKV_CHECK(config_.unix_path.size() < sizeof(addr.sun_path),
                "serve: unix socket path too long");
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());  // stale socket from a crash
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    set_cloexec(listen_fd_);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      throw_errno("bind " + config_.unix_path);
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    set_cloexec(listen_fd_);
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.tcp_port);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      throw_errno("bind 127.0.0.1:" + std::to_string(config_.tcp_port));
    }
    socklen_t len = sizeof(addr);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
      throw_errno("getsockname");
    }
    tcp_port_ = ntohs(addr.sin_port);
  }
  if (listen(listen_fd_, 64) != 0) throw_errno("listen");

  workers_.reserve(config_.workers);
  for (u32 i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::request_stop() {
  // Async-signal-safe: one nonblocking write, result ignored (a full
  // pipe already guarantees a pending wakeup).
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::wait_until_stop_requested() {
  std::unique_lock<std::mutex> lock(mu_);
  state_cv_.wait(lock, [&] { return stop_requested_; });
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    set_cloexec(cfd);
    auto conn = std::make_shared<Connection>();
    conn->fd = cfd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
  // New admissions stop the moment a stop is requested, before the
  // drain in stop() begins.
  draining_.store(true);
  std::lock_guard<std::mutex> lock(mu_);
  stop_requested_ = true;
  state_cv_.notify_all();
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::vector<u8> payload;
  const bool traced = obs_->enabled();
  try {
    while (read_frame(conn->fd, payload)) {
      // Trace anchor: captured before the decode so the admission
      // stage covers decode + admission control. The disabled plane
      // reads no clock here.
      const u64 arrive_ns = traced ? telemetry::now_ns() : 0;
      Request request;
      try {
        request = decode_request(payload);
      } catch (const SimError&) {
        // Frame boundary intact (magic + length checked), payload
        // malformed: reject and keep the connection. The request's
        // identity is unknowable; it is traced as kUnknownType.
        requests_seen_.fetch_add(1);
        rejects_bad_request_.fetch_add(1);
        Response resp;
        resp.status = Status::kBadRequest;
        if (traced) {
          obs::RequestTrace trace;
          trace.type = obs::kUnknownType;
          trace.status = static_cast<u8>(Status::kBadRequest);
          trace.start_ns = arrive_ns - obs_->steady_anchor_ns();
          const u64 ready_ns = telemetry::now_ns();
          conn->send(encode_response(resp));
          const u64 end_ns = telemetry::now_ns();
          trace.stage_ns[static_cast<size_t>(obs::Stage::kAdmission)] =
              ready_ns - arrive_ns;
          trace.stage_ns[static_cast<size_t>(
              obs::Stage::kResponseWrite)] = end_ns - ready_ns;
          trace.total_ns = end_ns - arrive_ns;
          obs_->complete(trace);
        } else {
          conn->send(encode_response(resp));
        }
        continue;
      }
      handle_request(conn, request, arrive_ns);
    }
  } catch (const SimError&) {
    // Framing violation or I/O error: drop the connection. Responses
    // of already-admitted requests are dropped by Connection::send.
    conn->alive.store(false);
  }
  conn->read_done.store(true);
  conn->finish_if_drained();
}

void Server::send_inline(const std::shared_ptr<Connection>& conn,
                         const Request& request, Status status,
                         std::string text, u64 arrive_ns) {
  Response resp;
  resp.type = request.type;
  resp.status = status;
  resp.request_id = request.request_id;
  resp.text = std::move(text);
  if (!obs_->enabled()) {
    conn->send(encode_response(resp));
    return;
  }
  obs::RequestTrace trace;
  trace.request_id = request.request_id;
  trace.client_id = request.client_id;
  trace.type = static_cast<u8>(request.type);
  trace.status = static_cast<u8>(status);
  trace.workload = request.point.workload;
  trace.flags = request.flags;
  trace.start_ns = arrive_ns - obs_->steady_anchor_ns();
  const u64 ready_ns = telemetry::now_ns();
  conn->send(encode_response(resp));
  const u64 end_ns = telemetry::now_ns();
  trace.stage_ns[static_cast<size_t>(obs::Stage::kAdmission)] =
      ready_ns - arrive_ns;
  trace.stage_ns[static_cast<size_t>(obs::Stage::kResponseWrite)] =
      end_ns - ready_ns;
  trace.total_ns = end_ns - arrive_ns;
  obs_->complete(trace);
}

void Server::handle_request(const std::shared_ptr<Connection>& conn,
                            const Request& request, u64 arrive_ns) {
  requests_seen_.fetch_add(1);

  if (request.type == MsgType::kPing) {
    pings_.fetch_add(1);
    send_inline(conn, request, Status::kOk, "", arrive_ns);
    return;
  }
  if (request.type == MsgType::kStats) {
    send_inline(conn, request, Status::kOk, stats_json(), arrive_ns);
    return;
  }
  if (request.type == MsgType::kMetrics) {
    // Counted before rendering, so the exposition includes this scrape
    // and two successive scrapes are strictly ordered.
    metrics_served_.fetch_add(1);
    send_inline(conn, request, Status::kOk,
                obs_->render_prometheus(counters_snapshot(),
                                        gauges_snapshot()),
                arrive_ns);
    return;
  }
  if (request.type == MsgType::kTrace) {
    traces_served_.fetch_add(1);
    send_inline(conn, request, Status::kOk, obs_->render_trace_json(),
                arrive_ns);
    return;
  }

  std::vector<PointParams> points;
  try {
    points = expand_points(request);
  } catch (const SimError&) {
    rejects_bad_request_.fetch_add(1);
    send_inline(conn, request, Status::kBadRequest, "", arrive_ns);
    return;
  }

  if (draining_.load()) {
    rejects_shutdown_.fetch_add(1);
    send_inline(conn, request, Status::kShuttingDown, "", arrive_ns);
    return;
  }

  auto job = std::make_shared<Job>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    u32& in_flight = in_flight_per_client_[request.client_id];
    if (in_flight >= config_.client_quota) {
      rejects_quota_.fetch_add(1);
      send_inline(conn, request, Status::kQuotaExceeded, "", arrive_ns);
      return;
    }
    if (queued_points_ + points.size() > config_.queue_capacity) {
      rejects_queue_full_.fetch_add(1);
      send_inline(conn, request, Status::kQueueFull, "", arrive_ns);
      return;
    }
    ++in_flight;
    queued_points_ += points.size();
    max_queue_depth_ = std::max(max_queue_depth_, queued_points_);
    conn->pending.fetch_add(1);

    job->conn = conn;
    job->request = request;
    job->points = std::move(points);
    job->rows.resize(job->points.size());
    job->remaining.store(static_cast<u32>(job->points.size()));
    job->admit_ns = telemetry::now_ns();
    if (request.deadline_ms != 0) {
      job->deadline_ns = job->admit_ns + u64{request.deadline_ms} * 1'000'000;
    }
    if (obs_->enabled()) {
      job->arrive_ns = arrive_ns;
      job->admission_ns = job->admit_ns - arrive_ns;
    }
    for (u32 i = 0; i < job->points.size(); ++i) {
      queue_.push_back({job, i});
    }
  }
  requests_admitted_.fetch_add(1);
  queue_cv_.notify_all();
}

void Server::worker_loop() {
  for (;;) {
    PointTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock,
                     [&] { return workers_exit_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_exit_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      --queued_points_;
      ++in_flight_points_;
    }
    run_task(task);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_points_;
      if (queued_points_ == 0 && in_flight_points_ == 0) {
        state_cv_.notify_all();
      }
    }
  }
}

void Server::run_task(const PointTask& task) {
  Job& job = *task.job;
  const bool traced = obs_->enabled();
  if (traced) {
    // Queue-wait stage: enqueue (admission) -> this worker's claim,
    // summed over the job's points.
    job.queue_wait_ns.fetch_add(telemetry::now_ns() - job.admit_ns,
                                std::memory_order_relaxed);
  }
  // Pre-run checks, cheapest first: a cancelled/expired/failed job's
  // remaining points finalize without touching a SoC.
  Status pre = Status::kOk;
  if (static_cast<Status>(job.status.load()) != Status::kOk) {
    pre = static_cast<Status>(job.status.load());
  } else if (hard_cancel_.load()) {
    pre = Status::kShuttingDown;
  } else if (job.deadline_ns != 0 &&
             telemetry::now_ns() > job.deadline_ns) {
    pre = Status::kDeadlineExpired;
  }

  if (pre == Status::kOk) {
    const bool no_cache = (job.request.flags & kFlagNoCache) != 0;
    const Service::CancelFn cancelled = [this, &job]() -> Status {
      if (hard_cancel_.load(std::memory_order_relaxed)) {
        return Status::kShuttingDown;
      }
      if (job.deadline_ns != 0 && telemetry::now_ns() > job.deadline_ns) {
        return Status::kDeadlineExpired;
      }
      return static_cast<Status>(
          job.status.load(std::memory_order_relaxed));
    };
    try {
      obs::StageClock clock;
      const Service::PointResult result =
          service_.run_point(job.points[task.index], no_cache, cancelled,
                             traced ? &clock : nullptr);
      if (traced) {
        job.cache_lookup_ns.fetch_add(clock.cache_lookup_ns,
                                      std::memory_order_relaxed);
        job.warm_fork_ns.fetch_add(clock.warm_fork_ns,
                                   std::memory_order_relaxed);
        job.execute_ns.fetch_add(clock.execute_ns,
                                 std::memory_order_relaxed);
        job.chunks.fetch_add(clock.chunks, std::memory_order_relaxed);
        if (clock.cache_hit) {
          job.cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
        if (result.status == Status::kOk) {
          obs_->note_point(job.points[task.index].workload, clock,
                           result.row.cycles);
        }
      }
      if (result.status == Status::kOk) {
        job.rows[task.index] = result.row;
      } else {
        try_set_status(job.status, result.status);
      }
    } catch (const SimError&) {
      try_set_status(job.status, Status::kInternalError);
    }
  } else {
    try_set_status(job.status, pre);
  }

  if (job.remaining.fetch_sub(1) == 1) finalize_job(task.job);
}

void Server::finalize_job(const std::shared_ptr<Job>& job) {
  Response resp;
  resp.type = job->request.type;
  resp.status = static_cast<Status>(job->status.load());
  resp.request_id = job->request.request_id;
  if (resp.status == Status::kOk) resp.rows = job->rows;
  const bool traced = obs_->enabled();
  // The quota slot frees before the response can reach the client: a
  // client that refills the moment a response lands, at exactly
  // client_quota in flight, must never see kQuotaExceeded.
  release_quota(job->request.client_id);
  const u64 write0_ns = traced ? telemetry::now_ns() : 0;
  job->conn->send(encode_response(resp));
  const u64 end_ns = traced ? telemetry::now_ns() : 0;
  job->conn->pending.fetch_sub(1);
  job->conn->finish_if_drained();

  if (traced) {
    obs::RequestTrace trace;
    trace.request_id = job->request.request_id;
    trace.client_id = job->request.client_id;
    trace.type = static_cast<u8>(job->request.type);
    trace.status = static_cast<u8>(resp.status);
    trace.workload = job->points.empty()
                         ? job->request.point.workload
                         : job->points[0].workload;
    trace.flags = job->request.flags;
    trace.points = static_cast<u32>(job->points.size());
    trace.chunks = job->chunks.load(std::memory_order_relaxed);
    trace.cache_hits = job->cache_hits.load(std::memory_order_relaxed);
    trace.start_ns = job->arrive_ns - obs_->steady_anchor_ns();
    trace.total_ns = end_ns - job->arrive_ns;
    using obs::Stage;
    trace.stage_ns[static_cast<size_t>(Stage::kAdmission)] =
        job->admission_ns;
    trace.stage_ns[static_cast<size_t>(Stage::kQueueWait)] =
        job->queue_wait_ns.load(std::memory_order_relaxed);
    trace.stage_ns[static_cast<size_t>(Stage::kCacheLookup)] =
        job->cache_lookup_ns.load(std::memory_order_relaxed);
    trace.stage_ns[static_cast<size_t>(Stage::kWarmFork)] =
        job->warm_fork_ns.load(std::memory_order_relaxed);
    trace.stage_ns[static_cast<size_t>(Stage::kExecute)] =
        job->execute_ns.load(std::memory_order_relaxed);
    trace.stage_ns[static_cast<size_t>(Stage::kResponseWrite)] =
        end_ns - write0_ns;
    obs_->complete(trace);
  }

  switch (resp.status) {
    case Status::kOk: responses_ok_.fetch_add(1); break;
    case Status::kDeadlineExpired: deadline_expired_.fetch_add(1); break;
    case Status::kShuttingDown: rejects_shutdown_.fetch_add(1); break;
    default: internal_errors_.fetch_add(1); break;
  }
  if (telemetry::enabled()) {
    telemetry::registry().record(telemetry::SpanPhase::kServeRequest,
                                 telemetry::now_ns() - job->admit_ns);
  }
}

void Server::release_quota(u32 client_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = in_flight_per_client_.find(client_id);
  if (it != in_flight_per_client_.end() && it->second > 0) --it->second;
}

void Server::stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {  // someone else is stopping; wait for them
      state_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stopping_ = true;
  }
  draining_.store(true);
  request_stop();  // wake the acceptor
  if (acceptor_.joinable()) acceptor_.join();

  // Graceful drain, bounded by drain_ms; whatever is still running
  // afterwards is cancelled at its next chunk boundary and answers
  // kShuttingDown.
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto all_done = [&] {
      return queued_points_ == 0 && in_flight_points_ == 0;
    };
    state_cv_.wait_for(lock, std::chrono::milliseconds(config_.drain_ms),
                       all_done);
    if (!all_done()) {
      hard_cancel_.store(true);
      state_cv_.wait(lock, all_done);
    }
    workers_exit_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(connections_);
  }
  for (const auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    conn->alive.store(false);
    ::close(conn->fd);
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;

  flush_manifest();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    state_cv_.notify_all();
  }
}

std::string Server::stats_json() const {
  u64 queued = 0, in_flight = 0, max_depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued = queued_points_;
    in_flight = in_flight_points_;
    max_depth = max_queue_depth_;
  }
  const ResultCache& cache = service_.cache();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"requests\":%llu,\"admitted\":%llu,\"responses_ok\":%llu,"
      "\"rejects_bad_request\":%llu,\"rejects_queue_full\":%llu,"
      "\"rejects_quota\":%llu,\"rejects_shutdown\":%llu,"
      "\"deadline_expired\":%llu,\"internal_errors\":%llu,"
      "\"pings\":%llu,\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"cache_entries\":%llu,\"cold_builds\":%llu,"
      "\"points_simulated\":%llu,\"queued_points\":%llu,"
      "\"in_flight_points\":%llu,\"max_queue_depth\":%llu,"
      "\"workers\":%u,",
      static_cast<unsigned long long>(requests_seen_.load()),
      static_cast<unsigned long long>(requests_admitted_.load()),
      static_cast<unsigned long long>(responses_ok_.load()),
      static_cast<unsigned long long>(rejects_bad_request_.load()),
      static_cast<unsigned long long>(rejects_queue_full_.load()),
      static_cast<unsigned long long>(rejects_quota_.load()),
      static_cast<unsigned long long>(rejects_shutdown_.load()),
      static_cast<unsigned long long>(deadline_expired_.load()),
      static_cast<unsigned long long>(internal_errors_.load()),
      static_cast<unsigned long long>(pings_.load()),
      static_cast<unsigned long long>(cache.hits()),
      static_cast<unsigned long long>(cache.misses()),
      static_cast<unsigned long long>(cache.entries()),
      static_cast<unsigned long long>(service_.warm_pool_cold_builds()),
      static_cast<unsigned long long>(service_.points_simulated()),
      static_cast<unsigned long long>(queued),
      static_cast<unsigned long long>(in_flight),
      static_cast<unsigned long long>(max_depth), config_.workers);
  return std::string(buf) + "\"per_workload\":" +
         obs_->per_workload_json() + "}";
}

obs::Counters Server::counters_snapshot() const {
  obs::Counters c;
  c.requests = requests_seen_.load();
  c.admitted = requests_admitted_.load();
  c.responses_ok = responses_ok_.load();
  c.rejects_bad_request = rejects_bad_request_.load();
  c.rejects_queue_full = rejects_queue_full_.load();
  c.rejects_quota = rejects_quota_.load();
  c.rejects_shutdown = rejects_shutdown_.load();
  c.deadline_expired = deadline_expired_.load();
  c.internal_errors = internal_errors_.load();
  c.pings = pings_.load();
  c.metrics_served = metrics_served_.load();
  c.traces_served = traces_served_.load();
  c.cache_hits = service_.cache().hits();
  c.cache_misses = service_.cache().misses();
  c.points_simulated = service_.points_simulated();
  c.cold_builds = service_.warm_pool_cold_builds();
  return c;
}

obs::Gauges Server::gauges_snapshot() const {
  obs::Gauges g;
  {
    std::lock_guard<std::mutex> lock(mu_);
    g.queued_points = queued_points_;
    g.in_flight_points = in_flight_points_;
    g.max_queue_depth = max_queue_depth_;
  }
  g.cache_entries = service_.cache().entries();
  g.workers = config_.workers;
  g.utilization = std::min(
      1.0, static_cast<double>(g.in_flight_points) / config_.workers);
  g.uptime_s =
      static_cast<double>(telemetry::now_ns() - start_ns_) / 1e9;
  return g;
}

void Server::flush_manifest() {
  if (config_.telemetry_dir.empty()) return;
  const double uptime_s =
      static_cast<double>(telemetry::now_ns() - start_ns_) / 1e9;
  const u64 hits = service_.cache().hits();
  const u64 misses = service_.cache().misses();
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);

  report::MetricsReport rep("hulkv_serve");
  rep.add_note("hulkv-serve daemon run summary (DESIGN.md section 16).");
  const auto add = [&rep](const char* key, u64 v, const char* unit = "") {
    rep.add_metric(key, report::Value::uinteger(v), unit);
  };
  add("serve.requests", requests_seen_.load());
  add("serve.admitted", requests_admitted_.load());
  add("serve.responses_ok", responses_ok_.load());
  add("serve.rejects_bad_request", rejects_bad_request_.load());
  add("serve.rejects_queue_full", rejects_queue_full_.load());
  add("serve.rejects_quota", rejects_quota_.load());
  add("serve.rejects_shutdown", rejects_shutdown_.load());
  add("serve.deadline_expired", deadline_expired_.load());
  add("serve.internal_errors", internal_errors_.load());
  add("serve.pings", pings_.load());
  add("serve.cache_hits", hits);
  add("serve.cache_misses", misses);
  add("serve.cache_entries", service_.cache().entries());
  rep.add_metric("serve.cache_hit_rate",
                 report::Value::number(hit_rate, 4), "");
  add("serve.cold_builds", service_.warm_pool_cold_builds());
  add("serve.points_simulated", service_.points_simulated());
  {
    std::lock_guard<std::mutex> lock(mu_);
    add("serve.max_queue_depth", max_queue_depth_);
  }
  add("serve.workers", config_.workers);
  rep.add_metric("serve.uptime_s", report::Value::number(uptime_s, 3),
                 "s");
  rep.add_metric(
      "serve.requests_per_s",
      report::Value::number(uptime_s == 0.0
                                ? 0.0
                                : static_cast<double>(
                                      requests_admitted_.load()) /
                                      uptime_s,
                            2),
      "1/s");
  if (telemetry::enabled()) {
    const telemetry::HistogramData lat =
        telemetry::registry().phase_histogram(
            telemetry::SpanPhase::kServeRequest);
    add("serve.p50_ns", lat.percentile(50), "ns");
    add("serve.p99_ns", lat.percentile(99), "ns");
    add("serve.p999_ns", lat.percentile(99.9), "ns");
  }

  telemetry::Manifest manifest =
      telemetry::build_manifest(rep, telemetry::registry());
  manifest.kind = telemetry::kManifestKindServe;
  // Schema v4: per-request aggregates from the observability plane.
  manifest.serve_requests.present = true;
  const obs::Counters c = counters_snapshot();
  manifest.serve_requests.outcomes = {
      {"ok", c.responses_ok},
      {"bad_request", c.rejects_bad_request},
      {"queue_full", c.rejects_queue_full},
      {"quota_exceeded", c.rejects_quota},
      {"shutting_down", c.rejects_shutdown},
      {"deadline_expired", c.deadline_expired},
      {"internal_error", c.internal_errors},
  };
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    manifest.serve_requests.stages.push_back(
        {obs::stage_name(stage), obs_->stage_histogram(stage)});
  }
  const std::string path =
      telemetry::append_manifest(config_.telemetry_dir, manifest);
  std::fprintf(stderr, "[serve] appended run manifest to %s\n",
               path.c_str());
}

}  // namespace hulkv::serve
