// Ordered telemetry teardown (DESIGN.md §16).
//
// The telemetry plane grows background machinery — the stall watchdog,
// the profiler's timer or wall sampler, the liveops HTTP thread, the
// SENKF_SAMPLE_MS sampler thread — that must stop *before* the
// SENKF_TRACE / SENKF_REPORT atexit exporters run, or an exporter can
// race a thread that is still publishing.  shutdown() stops all four by
// direct calls in that fixed order: deadline monitors before the
// profiler that samples them, the profiler before the endpoint that
// serves its output, and everything before the sampler all of them read.
//
// Every start of one of the four calls shutdown_at_exit().  Starts run
// from main()-time code (engine entry, tests), after the
// static-init-time export handlers were installed, so the shutdown
// atexit fires *first* (atexit runs LIFO), quiescing every background
// thread before any export walks shared state.  S-EnKF additionally
// calls shutdown() on its fault path, before it flushes the partial
// exports, so teardown does not depend on a clean exit().
#pragma once

namespace senkf::telemetry {

/// Installs shutdown() as an atexit handler, once per process.  Every
/// stop is idempotent, so a subsystem restarted after a shutdown() is
/// still stopped at exit.  Thread-safe.
void shutdown_at_exit();

/// Stops the watchdog, the profiler, the liveops endpoint and the
/// timeseries sampler, in that order.  A stop that throws is swallowed
/// — teardown must not abort an exiting process.  Safe to call any
/// number of times, from several engines, and on subsystems that never
/// started.
void shutdown() noexcept;

}  // namespace senkf::telemetry
