// Leveled, thread-safe logger.  Quiet by default (warnings and errors only)
// so tests and benches stay clean; `SENKF_LOG=debug|info|warn|error` sets
// the threshold at process start.  Every line carries a monotonic
// timestamp (same epoch as the telemetry tracer) and a thread tag matching
// the trace export's tid:
//   [senkf INFO     12.345678 t03] message
#pragma once

#include <sstream>
#include <string>

namespace senkf {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// The global threshold; messages below it are dropped.
LogLevel log_level();

/// Emits one line to stderr with a level tag.  Thread-safe.
void log_message(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string log_format(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

#define SENKF_LOG_DEBUG(...)                                       \
  do {                                                             \
    if (::senkf::log_level() <= ::senkf::LogLevel::kDebug)         \
      ::senkf::log_message(::senkf::LogLevel::kDebug,              \
                           ::senkf::detail::log_format(__VA_ARGS__)); \
  } while (false)

#define SENKF_LOG_INFO(...)                                        \
  do {                                                             \
    if (::senkf::log_level() <= ::senkf::LogLevel::kInfo)          \
      ::senkf::log_message(::senkf::LogLevel::kInfo,               \
                           ::senkf::detail::log_format(__VA_ARGS__)); \
  } while (false)

#define SENKF_LOG_WARN(...)                                        \
  do {                                                             \
    if (::senkf::log_level() <= ::senkf::LogLevel::kWarn)          \
      ::senkf::log_message(::senkf::LogLevel::kWarn,               \
                           ::senkf::detail::log_format(__VA_ARGS__)); \
  } while (false)

#define SENKF_LOG_ERROR(...)                                       \
  do {                                                             \
    if (::senkf::log_level() <= ::senkf::LogLevel::kError)         \
      ::senkf::log_message(::senkf::LogLevel::kError,              \
                           ::senkf::detail::log_format(__VA_ARGS__)); \
  } while (false)

}  // namespace senkf
