// In-process sampling wall/CPU profiler (DESIGN.md §16).
//
// `SENKF_PROFILE=<hz>` arms it: every span (TraceSpan/CountedSpan)
// already pushes a phase frame when the profile hook bit is set, and
// the profiler attributes each sample to the innermost active frame —
// no new instrumentation, the span stack *is* the call stack we care
// about.
//
// Two modes:
//  * cpu (default) — setitimer(ITIMER_PROF) + SIGPROF.  The kernel
//    delivers the signal to a thread that is burning CPU, and the
//    handler reads its *own* phase stack through the async-signal-safe
//    read_own_phase_stack() (lock-free atomics only) into a lock-free
//    sample ring.  Samples land proportional to CPU time per phase.
//  * wall — a dedicated sampler thread walks every registered phase
//    stack via the seqlock read_phase_stack() on a fixed cadence, so
//    blocked phases (waits, reads) accumulate samples too.
//
// Overhead when armed is one ring write per sample plus the span
// push/pop (a handful of relaxed stores); when SENKF_PROFILE is unset
// the profile hook bit stays clear and spans do zero extra work.
// Samples aggregate at drain time into (stack, rank) buckets,
// export as collapsed-stack flame-graph lines, and fold into the run
// report's v4 "profile" section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace senkf::telemetry::liveops {

/// Default sampling rate; prime, so it does not beat against
/// millisecond-periodic phases.
inline constexpr int kDefaultProfileHz = 97;

/// Parsed form of SENKF_PROFILE (exposed for tests):
/// off|on|<hz>|cpu:<hz>|wall|wall:<hz>.  `on` and bare `<hz>` mean cpu
/// mode; hz is clamped to [1, 1000].
struct ProfileEnvConfig {
  bool enabled = false;
  bool wall = false;
  int hz = kDefaultProfileHz;
};
ProfileEnvConfig parse_profile_env(const char* value);

/// Starts the profiler per SENKF_PROFILE if not already running; lazy
/// and idempotent (engines call it at entry).  Returns true when a
/// profiler is running on return.
bool ensure_profiler_started();

/// Programmatic start/stop (tests, examples).  start is a no-op when
/// already running and installs the shutdown() atexit handler; stop
/// disarms the timer / joins the sampler thread, drains the ring, and
/// clears the profile hook bit (a no-op on a profiler that never
/// started).
void start_profiler(int hz, bool wall);
void stop_profiler();
bool profiler_running();

struct ProfileStats {
  bool ever_started = false;
  bool running = false;
  bool wall = false;
  int hz = 0;
  std::uint64_t samples = 0;  ///< aggregated into buckets
  std::uint64_t dropped = 0;  ///< lapped in the ring before a drain
  std::uint64_t torn = 0;     ///< stack mutated mid-read; skipped
};
ProfileStats profiler_stats();

/// One aggregated sample bucket.
struct ProfileBucket {
  std::string stack;  ///< "outer;inner" frame names, outermost first
  std::int32_t rank = -1;
  std::uint64_t count = 0;
};

/// Drains the ring and returns every bucket (sorted by key, stable
/// across calls).  Callable while sampling continues.
std::vector<ProfileBucket> profile_buckets();

/// Flame-graph collapsed-stack lines: `outer;inner count\n`,
/// one per bucket, ready for flamegraph.pl / speedscope.
std::string render_collapsed();

/// The run report's v4 "profile" section (one JSON object);
/// {"enabled":false} when the profiler never started.
std::string profile_section_json();

/// Drops aggregated buckets and sample counters (tests between runs).
void clear_profile();

}  // namespace senkf::telemetry::liveops
