// Live operations plane front door (DESIGN.md §16).
//
// `ensure_liveops_started()` is the one call every engine makes at
// entry: it reads SENKF_HTTP / SENKF_WATCHDOG and lazily starts whichever
// subsystems those arm.  The HTTP server runs on its own thread and
// serves lock-light snapshots — registry rows and watchdog state — never
// touching engine hot paths:
//
//   /metrics     Prometheus text exposition of the registry
//   /health      JSON liveness + the watchdog verdict (503 on stall)
//
// Teardown is ordered through telemetry::shutdown(): the endpoint
// stops before the trace/report exporters run.
#pragma once

#include <cstdint>
#include <string>

namespace senkf::telemetry::liveops {

/// Parsed form of SENKF_HTTP (exposed for tests): empty/off disables;
/// a port number enables (0 = kernel-assigned ephemeral port, printed
/// at startup — tests use it to avoid collisions).
struct HttpEnvConfig {
  bool enabled = false;
  std::uint16_t port = 0;
};
HttpEnvConfig parse_http_env(const char* value);

/// Starts everything the telemetry env vars arm (HTTP endpoint,
/// watchdog) if not already running.  Lazy, idempotent, cheap when both
/// are unset.  Returns true when the HTTP endpoint is serving on return.
bool ensure_liveops_started();

/// Programmatic endpoint control (tests).  start returns the bound
/// port (resolves port 0), or 0 on failure; stop joins the thread.
std::uint16_t start_liveops_http(std::uint16_t port);
void stop_liveops_http();
bool liveops_http_running();

/// The bound port while serving (0 otherwise).
std::uint16_t liveops_port();

/// The /health body: process uptime, registry size, watchdog state, and
/// an overall "ok"/"stalled" status.
std::string health_json();

}  // namespace senkf::telemetry::liveops
