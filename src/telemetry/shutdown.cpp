#include "telemetry/shutdown.hpp"

#include <cstdlib>
#include <mutex>

#include "telemetry/liveops/liveops.hpp"
#include "telemetry/liveops/watchdog.hpp"

namespace senkf::telemetry {

void shutdown_at_exit() {
  static std::once_flag once;
  std::call_once(once, [] { std::atexit([] { shutdown(); }); });
}

void shutdown() noexcept {
  try {
    liveops::stop_watchdog();
  } catch (...) {
  }
  try {
    liveops::stop_liveops_http();
  } catch (...) {
  }
}

}  // namespace senkf::telemetry
