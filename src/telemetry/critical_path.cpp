#include "telemetry/critical_path.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

namespace senkf::telemetry {

namespace {

PathKind kind_of(Category category) {
  switch (category) {
    case Category::kRead:
      return PathKind::kDisk;
    case Category::kUpdate:
    case Category::kTask:
    case Category::kKernel:
      return PathKind::kCompute;
    case Category::kSend:
    case Category::kRecv:
    case Category::kWait:
    case Category::kOther:
      return PathKind::kOther;
  }
  return PathKind::kOther;
}

}  // namespace

const char* path_kind_name(PathKind kind) {
  switch (kind) {
    case PathKind::kCompute:
      return "compute";
    case PathKind::kDisk:
      return "disk";
    case PathKind::kCommBlocked:
      return "comm_blocked";
    case PathKind::kOther:
      return "other";
    case PathKind::kUntracked:
      return "untracked";
  }
  return "other";
}

double CriticalPathReport::total_of(PathKind kind) const {
  double total = 0.0;
  for (const PathSegment& s : segments) {
    if (s.kind == kind) total += s.seconds();
  }
  return total;
}

CriticalPathReport analyze_critical_path(const std::vector<TraceEvent>& events,
                                         const CriticalPathOptions& options) {
  CriticalPathReport report;
  report.window_start_ns = options.window_start_ns;

  // Per-rank span lists (finite-duration spans only — the zero-length
  // msg_send markers exist to carry flow origins, not time) and the flow
  // origin index the cross-rank jumps resolve against.
  std::map<std::int32_t, std::vector<const TraceEvent*>> by_rank;
  std::unordered_map<std::uint64_t, const TraceEvent*> flow_out;
  std::int64_t max_end = options.window_start_ns;
  for (const TraceEvent& e : events) {
    if (e.flow == FlowDir::kOut && e.flow_id != 0) {
      flow_out.emplace(e.flow_id, &e);
    }
    if (e.t_end_ns <= e.t_start_ns) continue;
    if (e.t_end_ns <= options.window_start_ns) continue;
    if (options.window_end_ns >= 0 && e.t_start_ns >= options.window_end_ns) {
      continue;
    }
    by_rank[e.rank].push_back(&e);
    max_end = std::max(max_end, e.t_end_ns);
  }
  if (by_rank.empty()) return report;

  report.window_end_ns =
      options.window_end_ns >= 0 ? options.window_end_ns : max_end;
  if (report.window_end_ns <= report.window_start_ns) return report;

  // Sort each rank's spans by start so the covering-span scan is a
  // backward sweep.
  for (auto& [rank, list] : by_rank) {
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->t_start_ns < b->t_start_ns;
              });
  }

  // Start on the rank that finished the call, so the path ends there: the
  // owner of the latest end of a span that is not a send (of any span, if
  // all are sends).  A send span can close after its message was consumed
  // and the receiver finished, so its tail is never what the call waited
  // for; the finishing rank's walk counts that tail as untracked.
  const TraceEvent* finish = nullptr;
  for (const bool skip_sends : {true, false}) {
    for (const auto& [rank, list] : by_rank) {
      for (const TraceEvent* e : list) {
        if (skip_sends && e->category == Category::kSend) continue;
        if (finish == nullptr || e->t_end_ns >= finish->t_end_ns) finish = e;
      }
    }
    if (finish != nullptr) break;
  }
  std::int32_t cursor_rank = finish->rank;
  std::int64_t cursor = report.window_end_ns;

  const auto emit = [&](std::int64_t from, std::int64_t to, std::int32_t rank,
                        const char* name, PathKind kind) {
    from = std::max(from, report.window_start_ns);
    if (to <= from) return;
    report.segments.push_back({from, to, rank, name, kind});
  };

  std::size_t steps = 0;
  while (cursor > report.window_start_ns) {
    if (++steps > options.max_steps) {
      report.truncated = true;
      break;
    }

    // Innermost span on cursor_rank covering the instant just before
    // `cursor`: latest t_start < cursor with t_end >= cursor.  Track the
    // latest span ending before the cursor too — that bounds the
    // untracked gap when nothing covers it.
    const TraceEvent* covering = nullptr;
    std::int64_t gap_floor = report.window_start_ns;
    const auto it = by_rank.find(cursor_rank);
    if (it != by_rank.end()) {
      for (const TraceEvent* e : it->second) {
        if (e->t_start_ns >= cursor) break;
        if (e->t_end_ns >= cursor) {
          covering = e;  // later t_start wins: the innermost nested span
        } else {
          gap_floor = std::max(gap_floor, e->t_end_ns);
        }
      }
    }

    if (covering == nullptr) {
      // Nothing recorded here: untracked idle/overhead on this rank up to
      // the nearest earlier span end (or the window start).
      emit(gap_floor, cursor, cursor_rank, "untracked", PathKind::kUntracked);
      if (gap_floor <= report.window_start_ns) break;
      cursor = gap_floor;
      continue;
    }

    // Cross-rank jump: only when the wait genuinely spanned the send —
    // the message left the sender *after* this span began, so everything
    // from the send to the cursor was time spent blocked on that sender.
    const TraceEvent* source = nullptr;
    if (covering->flow_id != 0 && (covering->flow == FlowDir::kIn ||
                                   covering->flow == FlowDir::kStep)) {
      const auto out = flow_out.find(covering->flow_id);
      if (out == flow_out.end()) {
        ++report.missing_edges;  // dropped message / truncated buffer:
                                 // degrade to same-rank attribution
      } else {
        source = out->second;
      }
    }
    if (source != nullptr && source->t_end_ns > covering->t_start_ns &&
        source->t_end_ns < cursor) {
      emit(source->t_end_ns, cursor, cursor_rank, covering->name,
           PathKind::kCommBlocked);
      ++report.message_hops;
      cursor_rank = source->rank;
      cursor = source->t_end_ns;
      continue;
    }

    emit(covering->t_start_ns, cursor, cursor_rank, covering->name,
         kind_of(covering->category));
    cursor = covering->t_start_ns;
  }

  // The walk emits latest-first; present segments in time order.
  std::reverse(report.segments.begin(), report.segments.end());
  report.valid = true;
  return report;
}

CriticalPathSummary summarize(const CriticalPathReport& report,
                              std::size_t top_k) {
  CriticalPathSummary out;
  out.wall_s = report.wall_s();
  out.message_hops = report.message_hops;
  out.missing_edges = report.missing_edges;
  out.truncated = report.truncated;

  std::map<std::pair<std::int32_t, std::string>, double> by_contributor;
  for (const PathSegment& s : report.segments) {
    const double sec = s.seconds();
    switch (s.kind) {
      case PathKind::kCompute:
        out.compute_s += sec;
        break;
      case PathKind::kDisk:
        out.disk_s += sec;
        break;
      case PathKind::kCommBlocked:
        out.comm_blocked_s += sec;
        break;
      case PathKind::kOther:
        out.other_s += sec;
        break;
      case PathKind::kUntracked:
        out.untracked_s += sec;
        continue;  // gaps are reported in the split, never as contributors
    }
    by_contributor[{s.rank, std::string(s.name)}] += sec;
  }
  out.attributed_s =
      out.compute_s + out.disk_s + out.comm_blocked_s + out.other_s;

  std::vector<CriticalPathSummary::Contributor> top;
  top.reserve(by_contributor.size());
  for (const auto& [key, sec] : by_contributor) {
    top.push_back({key.first, key.second, sec});
  }
  std::sort(top.begin(), top.end(),
            [](const CriticalPathSummary::Contributor& a,
               const CriticalPathSummary::Contributor& b) {
              return a.seconds > b.seconds;
            });
  if (top.size() > top_k) top.resize(top_k);
  out.top = std::move(top);
  return out;
}

}  // namespace senkf::telemetry
