// Critical-path attribution over the causal trace (DESIGN.md §13).
//
// The tracer records spans per rank and, since the span-context plumbing,
// cross-rank message edges (a receiver wait span knows the flow id of the
// send that released it).  This module walks that DAG *backward* from
// cycle end: stand at the latest moment of the window on the rank that
// finished the call (a trailing send span never counts — its message
// was already consumed, so nothing waited on its tail), find the span
// covering it on the current rank, attribute the covered interval, and
// either step earlier on the same rank or — when the span was genuinely
// blocked on a message (the send happened after the wait began) — jump to
// the sender's rank at send time.  The result is a contiguous partition
// of the window into segments, each attributed to one (rank, phase):
// per-cycle critical-path length, a ranked top-k contributor table, and a
// blocked-on-comm / blocked-on-disk / compute split for the run report
// (schema v2) and examples/monitored_run.
//
// Robustness over completeness: a flow edge whose source event is missing
// (dropped message, sender's buffer truncated) is counted in
// `missing_edges` and the walk degrades to same-rank attribution; the
// cursor strictly decreases every step and a hard step cap backs that up,
// so the walker terminates on any input, including corrupt DAGs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace senkf::telemetry {

/// Coarse attribution classes for critical-path segments.
enum class PathKind : std::uint8_t {
  kCompute,      ///< analysis / pool tasks / kernels
  kDisk,         ///< bar and member reads
  kCommBlocked,  ///< wait released by a message sent after the wait began
  kOther,        ///< sends, un-edged waits, misc
  kUntracked,    ///< no span covered this interval on the walked rank
};

const char* path_kind_name(PathKind kind);

/// One attributed interval of the walked path.  Segments returned by
/// analyze_critical_path are ordered by time and partition
/// [window_start, window_end] exactly — their durations sum to the wall
/// clock of the window by construction.
struct PathSegment {
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = 0;
  std::int32_t rank = -1;
  const char* name = "";  ///< span name, or "untracked" for gaps
  PathKind kind = PathKind::kOther;

  double seconds() const {
    return static_cast<double>(t_end_ns - t_start_ns) / 1e9;
  }
};

struct CriticalPathOptions {
  std::int64_t window_start_ns = 0;  ///< walk stops here (cycle start)
  std::int64_t window_end_ns = -1;   ///< -1 = latest span end in the input
  std::size_t max_steps = 1u << 20;  ///< hard termination cap
};

struct CriticalPathReport {
  bool valid = false;      ///< false = no events intersected the window
  bool truncated = false;  ///< hit max_steps; segments cover a suffix only
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  std::vector<PathSegment> segments;  ///< time-ordered, see PathSegment
  std::uint64_t message_hops = 0;     ///< cross-rank jumps taken
  std::uint64_t missing_edges = 0;    ///< flow ids with no recorded source

  double wall_s() const {
    return static_cast<double>(window_end_ns - window_start_ns) / 1e9;
  }
  /// Summed seconds of segments of one kind.
  double total_of(PathKind kind) const;
};

/// Walks the causal DAG backward through `events` (as returned by
/// collect_events(); any order accepted).  Never throws on malformed
/// input — missing edges degrade, never hang.
CriticalPathReport analyze_critical_path(const std::vector<TraceEvent>& events,
                                         const CriticalPathOptions& options = {});

/// Compact per-cycle form embedded in the run report (schema v2).
struct CriticalPathSummary {
  std::uint64_t cycle = 0;
  double wall_s = 0.0;
  double attributed_s = 0.0;  ///< wall minus untracked
  double compute_s = 0.0;
  double disk_s = 0.0;
  double comm_blocked_s = 0.0;
  double other_s = 0.0;
  double untracked_s = 0.0;
  std::uint64_t message_hops = 0;
  std::uint64_t missing_edges = 0;
  bool truncated = false;

  struct Contributor {
    std::int32_t rank = -1;
    std::string phase;
    double seconds = 0.0;
  };
  std::vector<Contributor> top;  ///< by seconds, descending
};

/// Aggregates segments by (rank, phase) into the ranked top-k table;
/// untracked time is reported separately, never as a contributor.
CriticalPathSummary summarize(const CriticalPathReport& report,
                              std::size_t top_k = 5);

}  // namespace senkf::telemetry
