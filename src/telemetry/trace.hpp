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
// Kill switch: `SENKF_TRACE=off|on|<path>` (read once at process start).
// `off` (the default) disarms every TraceSpan at the cost of a single
// relaxed atomic load + branch; `on` records and exports to
// `senkf_trace.json` at exit; any other value is the export path.
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
  kSend,       ///< parcomm sends (block scatter)
  kRecv,       ///< helper-thread drains and explicit receives
  kWait,       ///< blocked on stage data / mailbox
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

/// Whether spans record: one relaxed atomic load.
bool tracing_enabled();

/// Programmatic override of the SENKF_TRACE arming (tests, examples).
void set_tracing_enabled(bool enabled);

/// Rank attribution for every span recorded by the calling thread.
/// parcomm::Runtime sets this on each rank thread; helper threads and
/// pool tasks re-assert their owner's rank.
void set_thread_rank(std::int32_t rank);
std::int32_t thread_rank();

/// Small sequential id of the calling thread (the Chrome "tid"; also the
/// logger's thread tag).  Assigned on first use, stable for the thread's
/// lifetime.
std::int32_t thread_index();

/// RAII span.  Construction is one load + branch when tracing is off.
class TraceSpan {
 public:
  explicit TraceSpan(Category category, const char* name,
                     std::int32_t stage = -1)
      : name_(name), stage_(stage), category_(category),
        armed_(tracing_enabled()) {
    if (armed_) start_ns_ = now_ns();
  }
  ~TraceSpan() {
    if (armed_) record();
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
  bool armed() const { return armed_; }

 private:
  void record();

  std::int64_t start_ns_ = 0;
  std::uint64_t flow_id_ = 0;
  const char* name_;
  std::int32_t stage_;
  Category category_;
  FlowDir flow_ = FlowDir::kNone;
  bool armed_;
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
