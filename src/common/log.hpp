// Minimal leveled logger for the simulator. Logging defaults to `warn` so
// that benches and tests stay quiet; examples raise the level to show the
// SoC boot/offload flow, and the HULKV_LOG environment variable overrides
// the level without recompiling (trace|debug|info|warn|error|off). When a
// global clock is registered (set_log_clock), every line carries the
// current simulation cycle. Not thread-safe by design: the simulator is
// single threaded (one global clock domain, see DESIGN.md).
#pragma once

#include <functional>
#include <sstream>
#include <string>

#include "common/types.hpp"

namespace hulkv {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log threshold. Messages below this level are discarded. The
/// first call applies `HULKV_LOG` from the environment when it is set.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Parse a level name ("debug", "WARN", ...). Returns `fallback` for
/// anything unrecognised.
LogLevel parse_log_level(const std::string& name,
                         LogLevel fallback = LogLevel::kWarn);

/// Register the simulation clock used to cycle-stamp log lines
/// ("@cycle"). Pass an empty function to unregister (e.g. when the SoC
/// that owns the clock is being destroyed).
using LogClock = std::function<unsigned long long()>;
void set_log_clock(LogClock clock);

namespace detail {
void log_emit(LogLevel level, const std::string& component,
              const std::string& message);
}

/// Log `message` for `component` ("llc", "hyperram", ...) at `level`.
template <typename... Args>
void log(LogLevel level, const std::string& component, Args&&... args) {
  if (level < log_level()) return;
  std::ostringstream os;
  (os << ... << args);
  detail::log_emit(level, component, os.str());
}

/// `addr` as "0x" + lowercase hex digits, for messages and reports.
std::string hex_addr(Addr addr);

}  // namespace hulkv
