#include "support/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>

#include "telemetry/trace.hpp"

namespace senkf {

namespace {

// SENKF_LOG=debug|info|warn|error overrides the quiet default once at
// process start.  Unrecognised values keep the default so a typo can't
// silence errors.
int initial_level() {
  const char* env = std::getenv("SENKF_LOG");
  const std::string v = env == nullptr ? "" : env;
  if (v == "debug") return static_cast<int>(LogLevel::kDebug);
  if (v == "info") return static_cast<int>(LogLevel::kInfo);
  if (v == "warn") return static_cast<int>(LogLevel::kWarn);
  if (v == "error") return static_cast<int>(LogLevel::kError);
  if (!v.empty()) {
    std::cerr << "[senkf WARN ] SENKF_LOG='" << v
              << "' not recognised (want debug|info|warn|error); keeping "
                 "default level\n";
  }
  return static_cast<int>(LogLevel::kWarn);
}

const int g_level = initial_level();
std::mutex g_log_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?????";
}

}  // namespace

LogLevel log_level() { return static_cast<LogLevel>(g_level); }

void log_message(LogLevel level, const std::string& message) {
  // Monotonic seconds share the tracer's epoch and the thread tag matches
  // the trace export's tid, so log lines and spans cross-reference.
  const double seconds =
      static_cast<double>(telemetry::now_ns()) / 1e9;
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "%12.6f t%02d", seconds,
                telemetry::thread_index());
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::cerr << "[senkf " << level_tag(level) << " " << prefix << "] "
            << message << "\n";
}

}  // namespace senkf
