#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace hulkv {

namespace {
// Atomics: log_level() is called concurrently by server worker
// threads; two first-callers may both apply the env (idempotent).
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<bool> g_env_checked{false};
LogClock g_clock;  // NOLINT(cert-err58-cpp)

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

/// Lazily apply HULKV_LOG from the environment, once. An explicit
/// set_log_level() afterwards still wins (it re-marks the env as seen).
void apply_env_once() {
  if (g_env_checked.load(std::memory_order_acquire)) return;
  const char* env = std::getenv("HULKV_LOG");
  if (env != nullptr && env[0] != '\0') {
    g_level.store(
        parse_log_level(env, g_level.load(std::memory_order_relaxed)),
        std::memory_order_relaxed);
  }
  g_env_checked.store(true, std::memory_order_release);
}
}  // namespace

LogLevel log_level() {
  apply_env_once();
  return g_level.load(std::memory_order_relaxed);
}

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
  // Explicit choice overrides HULKV_LOG.
  g_env_checked.store(true, std::memory_order_release);
}

LogLevel parse_log_level(const std::string& name, LogLevel fallback) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower += static_cast<char>(
        c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

void set_log_clock(LogClock clock) { g_clock = std::move(clock); }

namespace detail {
void log_emit(LogLevel level, const std::string& component,
              const std::string& message) {
  // Wall-clock epoch stamp (ms resolution) alongside the simulation
  // cycle: the cycle orders lines within a run, the epoch time lets
  // lines be correlated across runs, with telemetry manifests, and
  // with anything else on the machine. Logs go to stderr, so bench
  // stdout stays byte-deterministic.
  const double epoch_s =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()) /
      1e3;
  if (g_clock) {
    std::fprintf(stderr, "[%-5s] t=%.3f @%-10llu %-10s %s\n",
                 level_name(level), epoch_s, g_clock(), component.c_str(),
                 message.c_str());
  } else {
    std::fprintf(stderr, "[%-5s] t=%.3f %-10s %s\n", level_name(level),
                 epoch_s, component.c_str(), message.c_str());
  }
}
}  // namespace detail

std::string hex_addr(Addr addr) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(addr));
  return buf;
}

}  // namespace hulkv
