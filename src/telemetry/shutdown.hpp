// Ordered telemetry teardown (DESIGN.md §16).
//
// The telemetry plane runs two background threads — the stall watchdog
// and the liveops HTTP endpoint — that must stop *before* the
// SENKF_TRACE / SENKF_REPORT atexit exporters run, or an exporter can
// race a thread that is still publishing.  shutdown() stops both by
// direct calls in that fixed order: the deadline monitor before the
// endpoint whose /health serves its verdict.
//
// Every start of either calls shutdown_at_exit().  Starts run from
// main()-time code (engine entry, tests), after the static-init-time
// export handlers were installed, so the shutdown atexit fires *first*
// (atexit runs LIFO), quiescing both threads before any export walks
// shared state.  S-EnKF additionally calls shutdown() on its fault path,
// before it flushes the partial exports, so teardown does not depend on
// a clean exit().
#pragma once

namespace senkf::telemetry {

/// Installs shutdown() as an atexit handler, once per process.  Every
/// stop is idempotent, so a subsystem restarted after a shutdown() is
/// still stopped at exit.  Thread-safe.
void shutdown_at_exit();

/// Stops the watchdog, then the liveops endpoint.  A stop that throws is
/// swallowed — teardown must not abort an exiting process.  Safe to call
/// any number of times, from several engines, and on subsystems that
/// never started.
void shutdown() noexcept;

}  // namespace senkf::telemetry
