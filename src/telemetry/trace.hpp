// Low-overhead span tracer (DESIGN.md §7).
//
// Every instrumented operation opens a TraceSpan; on destruction the span
// records `{category, name, rank, stage, t_start, t_end}` into a
// per-thread chunked buffer.  The hot path is lock-free: a thread appends
// to its own chunk and publishes the element with one release store; the
// global registry mutex is taken only when a thread registers its buffer
// or starts a new chunk (every kChunkCapacity events).  Buffers are kept
// alive past thread exit, so helper threads and pool workers that die
// before shutdown still contribute to the merged export.
//
// Kill switches:
//  * env — `SENKF_TRACE=off|on|<path>` (read once at process start).
//    `off` (the default) disarms every TraceSpan at the cost of a single
//    relaxed atomic load + branch; `on` records and exports to
//    `senkf_trace.json` at exit; any other value is the export path.
//  * compile time — configure with -DSENKF_TELEMETRY=OFF and
//    tracing_enabled() becomes `constexpr false`, so span bodies fold
//    away entirely.
//
// The merged buffers export as Chrome trace-event JSON ("X" complete
// events, one process row per rank) loadable in Perfetto or
// chrome://tracing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace senkf::telemetry {

/// Phase taxonomy shared by all instrumented planes; the Chrome "cat"
/// field, and what the smoke test asserts coverage of.
enum class Category : std::uint8_t {
  kRead = 0,   ///< pfs / store reads (bars, blocks, whole members)
  kSend,       ///< parcomm sends (block scatter, result gather)
  kRecv,       ///< helper-thread drains and explicit receives
  kWait,       ///< blocked on stage data / mailbox / barrier
  kUpdate,     ///< local analysis compute
  kTask,       ///< ThreadPool task execution
  kKernel,     ///< linalg kernel dispatch
  kOther,
};

const char* category_name(Category category);

/// Role of a span in a cross-rank message flow (DESIGN.md §13).  A
/// sender-side span is the flow origin (kOut, Chrome "s"), intermediate
/// hops — the helper-thread drain, the mailbox pop — are steps (kStep,
/// "t"), and the span whose wait the message ultimately unblocked is the
/// finish (kIn, "f" with bp:"e").
enum class FlowDir : std::uint8_t {
  kNone = 0,
  kOut,   ///< message leaves this span (flow start)
  kStep,  ///< message passed through this span (flow step)
  kIn,    ///< this span was blocked on the message (flow finish)
};

struct TraceEvent {
  const char* name = "";  ///< must point at storage outliving the tracer
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = 0;
  std::int32_t rank = -1;   ///< -1 = not attributed to a rank
  std::int32_t stage = -1;  ///< -1 = no stage/layer
  std::uint64_t flow_id = 0;  ///< 0 = not part of a message flow
  Category category = Category::kOther;
  FlowDir flow = FlowDir::kNone;
};

/// Nanoseconds on the process-wide monotonic clock (steady_clock anchored
/// at static-init time; shared with the logger's timestamps).
std::int64_t now_ns();

/// Bits of the shared span-hook mask: one relaxed load in every span
/// constructor covers both the tracer and the profiler, so an
/// uninstrumented run pays exactly the single load + branch it always
/// did (and zero extra work when SENKF_PROFILE is unset).
inline constexpr std::uint8_t kSpanHookTrace = 1u;
inline constexpr std::uint8_t kSpanHookProfile = 2u;

/// One relaxed atomic load; `constexpr 0` when compiled out.
#ifdef SENKF_TELEMETRY_DISABLED
constexpr std::uint8_t span_hooks() { return 0; }
constexpr bool tracing_enabled() { return false; }
#else
std::uint8_t span_hooks();
bool tracing_enabled();
#endif

/// Programmatic override of the SENKF_TRACE arming (tests, examples).
void set_tracing_enabled(bool enabled);

/// Arms/disarms the profiler's span hooks (kSpanHookProfile): while set,
/// every TraceSpan/CountedSpan pushes a phase frame the sampling
/// profiler attributes its samples to (DESIGN.md §16).
void set_profile_hooks_enabled(bool enabled);

/// Rank attribution for every span recorded by the calling thread.
/// parcomm::Runtime sets this on each rank thread; helper threads and
/// pool tasks re-assert their owner's rank.
void set_thread_rank(std::int32_t rank);
std::int32_t thread_rank();

/// Small sequential id of the calling thread (the Chrome "tid"; also the
/// logger's thread tag).  Assigned on first use, stable for the thread's
/// lifetime.
std::int32_t thread_index();

// ---- Phase-frame stack (profiler attribution, DESIGN.md §16) --------
//
// While profiling is armed, every span pushes a {name, category} frame
// onto its thread's bounded stack; the sampling profiler attributes
// each sample to the innermost frame.  Stacks are heap-registered (like
// the trace buffers) so a wall-clock sampler thread can read them
// cross-thread, and every field is a lock-free atomic so the SIGPROF
// handler can read its own stack async-signal-safely.

inline constexpr int kPhaseStackDepth = 16;

struct PhaseFrame {
  const char* name = nullptr;
  Category category = Category::kOther;
};

/// A (possibly torn-free) copy of one thread's innermost frames.
struct PhaseStackView {
  PhaseFrame frames[kPhaseStackDepth];
  int depth = 0;           ///< frames recorded (clamped to the stack)
  std::int32_t rank = -1;  ///< the owning thread's rank
};

/// Pushes/pops the calling thread's innermost frame.  Called by spans
/// only while kSpanHookProfile is armed; frames beyond kPhaseStackDepth
/// are counted but not recorded (pop stays symmetric).
void push_phase_frame(const char* name, Category category);
void pop_phase_frame();

/// Number of phase stacks ever registered (threads that pushed a frame
/// or set a rank while profiling was armed).
std::size_t phase_stack_count();

/// Seqlock read of stack `index` for the wall-clock sampler; returns
/// false when the owner mutated it mid-read (skip the sample) or the
/// index is stale.
bool read_phase_stack(std::size_t index, PhaseStackView* out);

/// Same for the calling thread, async-signal-safe (reads only lock-free
/// atomics and pre-registered thread-local state); false when the
/// thread has no stack yet.
bool read_own_phase_stack(PhaseStackView* out);

/// RAII span.  Construction is one load + branch when both hooks are off.
class TraceSpan {
 public:
  explicit TraceSpan(Category category, const char* name,
                     std::int32_t stage = -1)
      : name_(name), stage_(stage), category_(category),
        hooks_(span_hooks()) {
    if (hooks_ & kSpanHookTrace) start_ns_ = now_ns();
    if (hooks_ & kSpanHookProfile) push_phase_frame(name, category);
  }
  ~TraceSpan() {
    if (hooks_ & kSpanHookProfile) pop_phase_frame();
    if (hooks_ & kSpanHookTrace) record();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Stage known only after work started (e.g. once a message header is
  /// unpacked); call before destruction.
  void set_stage(std::int32_t stage) { stage_ = stage; }

  /// Bind this span to a message flow (id from alloc_flow_id() on the
  /// sender, or from a received envelope's span context).  id 0 is
  /// ignored, so callers can pass an unstamped context straight through.
  void set_flow(FlowDir dir, std::uint64_t id) {
    if (id == 0) return;
    flow_ = dir;
    flow_id_ = id;
  }

  std::int64_t start_ns() const { return start_ns_; }
  bool armed() const { return (hooks_ & kSpanHookTrace) != 0; }

 private:
  void record();

  std::int64_t start_ns_ = 0;
  std::uint64_t flow_id_ = 0;
  const char* name_;
  std::int32_t stage_;
  Category category_;
  FlowDir flow_ = FlowDir::kNone;
  std::uint8_t hooks_;
};

/// Process-unique nonzero flow id for a new message (atomic counter).
/// Rank threads share one process here, so uniqueness is global; a real
/// MPI transport would namespace by origin rank, which the span context
/// carries anyway.
std::uint64_t alloc_flow_id();

/// Direct recording for pre-timed intervals (CountedSpan, tests).
void record_event(const TraceEvent& event);

/// Merged snapshot of every thread's buffer, ordered by t_start.  Safe to
/// call while other threads are still recording (they are snapshotted up
/// to their last published event).
std::vector<TraceEvent> collect_events();

/// Drops all recorded events.  Requires quiescence: no other thread may
/// be recording concurrently (tests call it between runs).
void clear_events();

/// Chrome trace-event JSON (object form, {"traceEvents": [...]}): one
/// "X" complete event per span, microsecond timestamps, pid = rank + 1
/// with "M" process_name metadata rows, tid = thread_index().  Spans
/// bound to a message flow additionally emit an "s"/"t"/"f" flow event
/// (shared name "parcomm", cat "flow") so Perfetto draws cross-rank
/// arrows from sender to the wait the message released.
void write_chrome_trace(std::ostream& out);
void write_chrome_trace(const std::string& path);

/// Parsed form of the SENKF_TRACE environment value (exposed for tests).
struct TraceEnvConfig {
  bool enabled = false;
  std::string export_path;  ///< empty = no export at exit
};
TraceEnvConfig parse_trace_env(const char* value);

/// Path the process will export to at exit ("" = none).
const std::string& trace_export_path();

}  // namespace senkf::telemetry
