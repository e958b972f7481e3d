// Stall watchdog (DESIGN.md §16).
//
// An engine arms a deadline around each blocking phase — one bar read,
// one stage wait — sized from the tuning cost model's prediction times
// a safety scale (`SENKF_WATCHDOG=off|on|<scale>`, default scale 3).
// A monitor thread sleeps until the earliest armed deadline; a phase
// that disarms in time costs two mutexed map operations, a phase that
// overruns fires once: `senkf.watchdog.fired` increments, a WARN line
// names the phase/rank/deadline, the armed exports flush partially
// (the stalled run leaves its trace + report on disk *while still
// stalled*), and the overrun is recorded for /health and the report's
// "watchdog" section, both written by write_watchdog().  Firing never
// interrupts the phase — the watchdog observes, operators act.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace senkf::telemetry {
class JsonWriter;
}

namespace senkf::telemetry::liveops {

/// Parsed form of SENKF_WATCHDOG (exposed for tests): off|on|<scale>.
/// `on` arms with the default safety scale; a positive number is the
/// scale multiplied onto every armed deadline.
struct WatchdogEnvConfig {
  bool enabled = false;
  double scale = 3.0;
};
WatchdogEnvConfig parse_watchdog_env(const char* value);

/// Starts the monitor per SENKF_WATCHDOG if not already running; lazy
/// and idempotent.  Returns true when the monitor is running on return.
bool ensure_watchdog_started();

/// Programmatic start/stop (tests).  `scale` multiplies every armed
/// deadline; start installs the shutdown() atexit handler.
void start_watchdog(double scale);
void stop_watchdog();
bool watchdog_running();

/// Arms a deadline `deadline_s * scale` from now for `phase` on `rank`.
/// Returns a disarm token; 0 (a no-op token) when the monitor is off
/// or deadline_s is not positive.  `phase` must outlive the scope
/// (string literals).
std::uint64_t watchdog_arm(const char* phase, double deadline_s,
                           std::int32_t rank = -1);
void watchdog_disarm(std::uint64_t token);

/// One recorded overrun (the list is bounded; `fired` keeps the total).
struct WatchdogOverrun {
  std::string phase;
  std::int32_t rank = -1;
  double deadline_s = 0.0;  ///< the scaled deadline that was exceeded
  double overrun_s = 0.0;   ///< how far past it the fire happened
};

struct WatchdogStats {
  bool ever_started = false;
  bool running = false;
  double scale = 0.0;
  std::uint64_t armed = 0;  ///< deadlines ever armed
  std::uint64_t fired = 0;  ///< deadlines that overran
  std::vector<WatchdogOverrun> overruns;  ///< newest-bounded record
};
WatchdogStats watchdog_stats();

/// Writes `stats` as one JSON object — the report's "watchdog" section
/// and /health's "watchdog" member.  Every field is always written;
/// "enabled" is false when the monitor never started.
void write_watchdog(JsonWriter& json, const WatchdogStats& stats);

/// Drops recorded overruns and counters (tests between runs); armed
/// deadlines stay armed.
void clear_watchdog();

/// RAII arm/disarm around one blocking phase.
class WatchdogScope {
 public:
  WatchdogScope(const char* phase, double deadline_s, std::int32_t rank = -1)
      : token_(watchdog_arm(phase, deadline_s, rank)) {}
  ~WatchdogScope() { watchdog_disarm(token_); }

  WatchdogScope(const WatchdogScope&) = delete;
  WatchdogScope& operator=(const WatchdogScope&) = delete;

 private:
  std::uint64_t token_;
};

}  // namespace senkf::telemetry::liveops
