// Ordered telemetry teardown (DESIGN.md §16).
//
// The telemetry plane grows background machinery — the SENKF_SAMPLE_MS
// sampler thread, the liveops HTTP thread, the profiler's timer, the
// stall watchdog — that must stop *before* the SENKF_TRACE /
// SENKF_REPORT atexit exporters run, or an exporter can race a thread
// that is still publishing.  Subsystems register a hook with a priority;
// shutdown() runs hooks in ascending priority order, exactly once, and
// is safe to call multiple times and from multiple engines.
//
// The first registration installs an atexit handler.  atexit runs LIFO,
// and hooks are only registered from main()-time code (engine entry,
// scheduler start), which executes after the static-init-time export
// handlers were installed — so the shutdown atexit fires *first*,
// quiescing every background thread before any export walks shared
// state.  Engines additionally call shutdown() explicitly on their exit
// and fault paths so teardown does not depend on a clean exit().
#pragma once

#include <functional>

namespace senkf::telemetry {

/// Suggested priorities (lower runs first): stop deadline monitors
/// before the profiler that samples them, the profiler before the HTTP
/// plane that serves its output, and everything before the timeseries
/// sampler that all of them read.
inline constexpr int kShutdownWatchdog = 10;
inline constexpr int kShutdownProfiler = 20;
inline constexpr int kShutdownHttp = 30;
inline constexpr int kShutdownSampler = 40;

/// Registers `fn` to run during shutdown(), ordered by ascending
/// `priority` (ties run in registration order).  Re-registering after
/// shutdown() re-arms it for the next call.  Thread-safe.
void register_shutdown_hook(int priority, std::function<void()> fn);

/// Runs all registered hooks once, in priority order, then stops the
/// timeseries background sampler.  Hooks that throw are swallowed —
/// teardown must not abort an exiting process.  Safe to call from
/// several engines; later calls only run hooks registered since the
/// previous call.  noexcept by contract.
void shutdown() noexcept;

}  // namespace senkf::telemetry
