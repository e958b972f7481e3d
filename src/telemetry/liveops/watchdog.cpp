#include "telemetry/liveops/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "telemetry/json_writer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/shutdown.hpp"
#include "telemetry/trace.hpp"

namespace senkf::telemetry::liveops {

namespace {

constexpr std::size_t kMaxOverrunRecords = 64;

struct Armed {
  const char* phase = "";
  std::int32_t rank = -1;
  double deadline_s = 0.0;       ///< scaled; for the overrun record
  std::int64_t deadline_ns = 0;  ///< absolute, on the now_ns() clock
};

struct WatchdogState {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::uint64_t, Armed> armed;  // token -> deadline
  std::uint64_t next_token = 1;
  std::uint64_t armed_total = 0;
  std::uint64_t fired_total = 0;
  std::vector<WatchdogOverrun> overruns;
  double scale = 3.0;
  bool running = false;
  bool ever_started = false;
  bool stop_requested = false;
  bool flushed = false;  ///< partial exports flushed on first fire
  std::thread monitor;
};

WatchdogState& state() {
  static auto* s = new WatchdogState();  // leaked: read at atexit
  return *s;
}

// Fires every overdue deadline once (removing it — a phase only
// overruns once; its disarm becomes a cheap miss).  Returns the next
// pending deadline, or 0 when none are armed.  Caller holds s.mutex.
std::int64_t fire_overdue_locked(WatchdogState& s, std::int64_t t_ns) {
  static Counter& fired = Registry::global().counter("senkf.watchdog.fired");
  std::int64_t next_ns = 0;
  bool first_fire = false;
  for (auto it = s.armed.begin(); it != s.armed.end();) {
    if (it->second.deadline_ns > t_ns) {
      if (next_ns == 0 || it->second.deadline_ns < next_ns) {
        next_ns = it->second.deadline_ns;
      }
      ++it;
      continue;
    }
    const Armed& a = it->second;
    WatchdogOverrun overrun;
    overrun.phase = a.phase;
    overrun.rank = a.rank;
    overrun.deadline_s = a.deadline_s;
    overrun.overrun_s = static_cast<double>(t_ns - a.deadline_ns) / 1e9;
    ++s.fired_total;
    fired.add(1);
    std::cerr << "[senkf watchdog] WARN phase '" << a.phase << "' rank "
              << a.rank << " exceeded its " << a.deadline_s
              << "s deadline (+" << overrun.overrun_s << "s)\n";
    if (s.overruns.size() < kMaxOverrunRecords) {
      s.overruns.push_back(std::move(overrun));
    }
    if (!s.flushed) {
      s.flushed = true;
      first_fire = true;
    }
    it = s.armed.erase(it);
  }
  if (first_fire) {
    // A stalled run may never reach its own export path; leave the
    // partial trace + report on disk while the stall is still live.
    // flush_exports takes telemetry locks only — never ours — but drop
    // the lock anyway so arm/disarm stay non-blocking during the write.
    s.mutex.unlock();
    flush_exports(true);
    s.mutex.lock();
    next_ns = 0;
    for (const auto& [token, a] : s.armed) {
      if (next_ns == 0 || a.deadline_ns < next_ns) next_ns = a.deadline_ns;
    }
  }
  return next_ns;
}

void monitor_loop() {
  WatchdogState& s = state();
  std::unique_lock<std::mutex> lock(s.mutex);
  while (!s.stop_requested) {
    const std::int64_t next_ns = fire_overdue_locked(s, now_ns());
    // A first fire drops the lock to flush exports; a stop requested in
    // that window has already notified, so sleeping now would never wake.
    if (s.stop_requested) break;
    if (next_ns == 0) {
      s.cv.wait(lock);
      continue;
    }
    const std::int64_t wait_ns = next_ns - now_ns();
    if (wait_ns > 0) {
      s.cv.wait_for(lock, std::chrono::nanoseconds(wait_ns));
    }
  }
}

}  // namespace

WatchdogEnvConfig parse_watchdog_env(const char* value) {
  WatchdogEnvConfig config;
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "off" || v == "0" || v == "false") return config;
  config.enabled = true;
  if (v == "on" || v == "1" || v == "true") return config;
  char* end = nullptr;
  const double scale = std::strtod(v.c_str(), &end);
  if (end == nullptr || *end != '\0' || scale <= 0.0) {
    config.enabled = false;  // unparsable scale: stay off, never crash
    return config;
  }
  config.scale = scale;
  return config;
}

void start_watchdog(double scale) {
  WatchdogState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.running) return;
  s.scale = scale > 0.0 ? scale : 3.0;
  s.stop_requested = false;
  s.ever_started = true;
  shutdown_at_exit();  // stopped before the atexit exporters run
  s.running = true;
  s.monitor = std::thread(monitor_loop);
}

void stop_watchdog() {
  WatchdogState& s = state();
  std::thread monitor;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.running) return;
    s.running = false;
    s.stop_requested = true;
    s.armed.clear();
    monitor = std::move(s.monitor);
  }
  s.cv.notify_all();
  if (monitor.joinable()) monitor.join();
}

bool watchdog_running() {
  WatchdogState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.running;
}

bool ensure_watchdog_started() {
  static const WatchdogEnvConfig config =
      parse_watchdog_env(std::getenv("SENKF_WATCHDOG"));
  if (config.enabled && !watchdog_running()) {
    start_watchdog(config.scale);
  }
  return watchdog_running();
}

std::uint64_t watchdog_arm(const char* phase, double deadline_s,
                           std::int32_t rank) {
  if (phase == nullptr || deadline_s <= 0.0) return 0;
  WatchdogState& s = state();
  static Counter& armed = Registry::global().counter("senkf.watchdog.armed");
  std::uint64_t token = 0;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.running) return 0;
    const double scaled_s = deadline_s * s.scale;
    token = s.next_token++;
    Armed a;
    a.phase = phase;
    a.rank = rank;
    a.deadline_s = scaled_s;
    a.deadline_ns = now_ns() + static_cast<std::int64_t>(scaled_s * 1e9);
    s.armed.emplace(token, a);
    ++s.armed_total;
  }
  armed.add(1);
  s.cv.notify_all();  // the monitor re-computes its earliest deadline
  return token;
}

void watchdog_disarm(std::uint64_t token) {
  if (token == 0) return;
  WatchdogState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.armed.erase(token);  // already-fired deadlines were erased at fire
}

WatchdogStats watchdog_stats() {
  WatchdogState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  WatchdogStats stats;
  stats.ever_started = s.ever_started;
  stats.running = s.running;
  stats.scale = s.scale;
  stats.armed = s.armed_total;
  stats.fired = s.fired_total;
  stats.overruns = s.overruns;
  return stats;
}

void write_watchdog(JsonWriter& json, const WatchdogStats& stats) {
  json.begin_object()
      .field("enabled", stats.ever_started)
      .field("running", stats.running)
      .field("scale", stats.scale)
      .field("armed", stats.armed)
      .field("fired", stats.fired)
      .field("status", stats.fired == 0 ? "ok" : "stalled");
  json.key("overruns").begin_array();
  for (const WatchdogOverrun& o : stats.overruns) {
    json.begin_object()
        .field("phase", o.phase)
        .field("rank", o.rank)
        .field("deadline_s", o.deadline_s)
        .field("overrun_s", o.overrun_s)
        .end_object();
  }
  json.end_array();
  json.end_object();
}

void clear_watchdog() {
  WatchdogState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.armed_total = 0;
  s.fired_total = 0;
  s.overruns.clear();
  s.flushed = false;
}

}  // namespace senkf::telemetry::liveops
