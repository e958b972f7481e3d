// Critical-path walker on synthetic causal DAGs: exact attribution on
// hand-built span sets, cross-rank jumps through flow edges, the
// partition invariant (segments sum to the window's wall clock), and the
// degradation guarantees — missing edges never hang the walk, corrupt
// DAGs terminate via the strictly-decreasing cursor and the step cap.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "telemetry/critical_path.hpp"

namespace senkf::telemetry {
namespace {

TraceEvent span(std::int32_t rank, const char* name, Category category,
                std::int64_t start, std::int64_t end,
                FlowDir flow = FlowDir::kNone, std::uint64_t flow_id = 0) {
  TraceEvent e;
  e.name = name;
  e.t_start_ns = start;
  e.t_end_ns = end;
  e.rank = rank;
  e.category = category;
  e.flow = flow;
  e.flow_id = flow_id;
  return e;
}

/// Zero-length flow-origin marker, as Communicator::post records.
TraceEvent origin(std::int32_t rank, std::int64_t t, std::uint64_t flow_id) {
  return span(rank, "msg_send", Category::kSend, t, t, FlowDir::kOut, flow_id);
}

double segments_total(const CriticalPathReport& report) {
  double total = 0.0;
  for (const PathSegment& s : report.segments) total += s.seconds();
  return total;
}

TEST(CriticalPath, EmptyInputIsInvalid) {
  const CriticalPathReport report = analyze_critical_path({});
  EXPECT_FALSE(report.valid);
  EXPECT_TRUE(report.segments.empty());
}

TEST(CriticalPath, SingleSpanAttributesWholeWindow) {
  const std::vector<TraceEvent> events{
      span(0, "local_analysis", Category::kUpdate, 100, 600)};
  const CriticalPathReport report = analyze_critical_path(events);
  ASSERT_TRUE(report.valid);
  // Default window: [0, latest end] → 100ns untracked + 500ns compute.
  EXPECT_EQ(report.window_end_ns, 600);
  EXPECT_NEAR(report.total_of(PathKind::kCompute), 500e-9, 1e-15);
  EXPECT_NEAR(report.total_of(PathKind::kUntracked), 100e-9, 1e-15);
  EXPECT_NEAR(segments_total(report), report.wall_s(), 1e-15);
}

TEST(CriticalPath, JumpsAcrossRanksThroughFlowEdge) {
  // Rank 0 reads a bar [50, 150], sends at 150 (flow 7); rank 1 waits
  // [100, 200] and is released by that message.  The path must be:
  // untracked [0,50] @0, disk [50,150] @0, comm-blocked [150,200] @1.
  const std::vector<TraceEvent> events{
      span(0, "bar_obtain", Category::kRead, 50, 150),
      origin(0, 150, 7),
      span(1, "stage_wait", Category::kWait, 100, 200, FlowDir::kIn, 7),
  };
  const CriticalPathReport report = analyze_critical_path(events);
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.message_hops, 1u);
  EXPECT_EQ(report.missing_edges, 0u);
  ASSERT_EQ(report.segments.size(), 3u);
  EXPECT_EQ(report.segments[0].kind, PathKind::kUntracked);
  EXPECT_EQ(report.segments[1].kind, PathKind::kDisk);
  EXPECT_EQ(report.segments[1].rank, 0);
  EXPECT_EQ(report.segments[2].kind, PathKind::kCommBlocked);
  EXPECT_EQ(report.segments[2].rank, 1);
  EXPECT_EQ(report.segments[2].t_start_ns, 150);
  EXPECT_EQ(report.segments[2].t_end_ns, 200);
  EXPECT_NEAR(segments_total(report), report.wall_s(), 1e-15);
}

TEST(CriticalPath, SendBeforeWaitStaysOnRank) {
  // The message left *before* the wait began: the receiver was never
  // blocked on the sender inside this span, so no jump happens and the
  // wait is attributed locally.
  const std::vector<TraceEvent> events{
      origin(0, 50, 9),
      span(1, "stage_wait", Category::kWait, 100, 200, FlowDir::kIn, 9),
  };
  const CriticalPathReport report = analyze_critical_path(events);
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.message_hops, 0u);
  EXPECT_NEAR(report.total_of(PathKind::kOther), 100e-9, 1e-15);
}

TEST(CriticalPath, TrailingSendSpanDoesNotStartThePath) {
  // A straggling sender's send span outlives the receiver's last wait:
  // rank 1 reads [0, 500] and posts flow 7 at 510 inside block_scatter
  // [500, 620]; rank 0's result_wait [100, 600] is released by it.  The
  // call finished at 600 on rank 0, so the walk starts there and hops to
  // the sender.  The send's tail past the consumed message held nothing
  // up: rank 0 reads it as untracked.
  const std::vector<TraceEvent> events{
      span(1, "bar_obtain", Category::kRead, 0, 500),
      span(1, "block_scatter", Category::kSend, 500, 620),
      origin(1, 510, 7),
      span(0, "result_wait", Category::kWait, 100, 600, FlowDir::kIn, 7),
  };
  const CriticalPathReport report = analyze_critical_path(events);
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.window_end_ns, 620);
  EXPECT_EQ(report.message_hops, 1u);
  ASSERT_EQ(report.segments.size(), 4u);
  EXPECT_EQ(report.segments[0].kind, PathKind::kDisk);
  EXPECT_EQ(report.segments[0].rank, 1);
  EXPECT_EQ(report.segments[1].kind, PathKind::kOther);
  EXPECT_EQ(report.segments[1].rank, 1);
  EXPECT_EQ(report.segments[1].t_end_ns, 510);
  EXPECT_EQ(report.segments[2].kind, PathKind::kCommBlocked);
  EXPECT_EQ(report.segments[2].rank, 0);
  EXPECT_EQ(report.segments[2].t_start_ns, 510);
  EXPECT_EQ(report.segments[3].kind, PathKind::kUntracked);
  EXPECT_EQ(report.segments[3].rank, 0);
  EXPECT_EQ(report.segments[3].t_start_ns, 600);
  EXPECT_NEAR(segments_total(report), report.wall_s(), 1e-15);
}

TEST(CriticalPath, MissingEdgeDegradesToSameRank) {
  // Flow id 42 has no recorded origin (dropped message): the walker must
  // count it, attribute locally, and terminate.
  const std::vector<TraceEvent> events{
      span(1, "stage_wait", Category::kWait, 100, 200, FlowDir::kIn, 42),
      span(1, "local_analysis", Category::kUpdate, 0, 100),
  };
  const CriticalPathReport report = analyze_critical_path(events);
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.missing_edges, 1u);
  EXPECT_EQ(report.message_hops, 0u);
  EXPECT_NEAR(report.total_of(PathKind::kOther), 100e-9, 1e-15);
  EXPECT_NEAR(report.total_of(PathKind::kCompute), 100e-9, 1e-15);
  EXPECT_NEAR(segments_total(report), report.wall_s(), 1e-15);
}

TEST(CriticalPath, PartitionInvariantOnManyRanks) {
  // A messier DAG: nested spans, gaps, two hops.  Whatever the walk
  // does, the segments must partition the window exactly.
  std::vector<TraceEvent> events;
  events.push_back(span(0, "bar_obtain", Category::kRead, 10, 400));
  events.push_back(span(0, "bar_read", Category::kRead, 50, 300));
  events.push_back(origin(0, 400, 1));
  events.push_back(span(1, "drain_block", Category::kRecv, 350, 420,
                        FlowDir::kStep, 1));
  events.push_back(origin(1, 420, 2));
  events.push_back(span(2, "stage_wait", Category::kWait, 100, 500,
                        FlowDir::kIn, 2));
  events.push_back(span(2, "local_analysis", Category::kUpdate, 500, 800));
  CriticalPathOptions options;
  options.window_start_ns = 0;
  const CriticalPathReport report = analyze_critical_path(events, options);
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.window_end_ns, 800);
  EXPECT_NEAR(segments_total(report), report.wall_s(), 1e-15);
  EXPECT_GE(report.message_hops, 1u);
  // Time order and contiguity of the partition.
  for (std::size_t i = 1; i < report.segments.size(); ++i) {
    EXPECT_EQ(report.segments[i - 1].t_end_ns, report.segments[i].t_start_ns);
  }
  EXPECT_EQ(report.segments.front().t_start_ns, 0);
  EXPECT_EQ(report.segments.back().t_end_ns, 800);
}

TEST(CriticalPath, StepCapTruncatesInsteadOfHanging) {
  // Thousands of 1ns spans back-to-back; a cap of 8 must stop the walk
  // and say so.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 4096; ++i) {
    events.push_back(span(0, "tick", Category::kOther, i, i + 1));
  }
  CriticalPathOptions options;
  options.max_steps = 8;
  const CriticalPathReport report = analyze_critical_path(events, options);
  ASSERT_TRUE(report.valid);
  EXPECT_TRUE(report.truncated);
  EXPECT_LE(report.segments.size(), 8u);
}

TEST(CriticalPath, SelfReferentialFlowTerminates) {
  // Corrupt DAG: a span claims to be released by a message it itself
  // originated at its own end.  source->t_end_ns == cursor fails the
  // strict < check, so no jump and no infinite loop.
  std::vector<TraceEvent> events{
      span(0, "weird", Category::kWait, 0, 100, FlowDir::kIn, 5),
      origin(0, 100, 5),
  };
  const CriticalPathReport report = analyze_critical_path(events);
  ASSERT_TRUE(report.valid);
  EXPECT_FALSE(report.truncated);
  EXPECT_NEAR(segments_total(report), report.wall_s(), 1e-15);
}

TEST(CriticalPath, WindowClampsOlderCycles) {
  // Spans from a previous cycle must not leak into this cycle's walk.
  const std::vector<TraceEvent> events{
      span(0, "old_cycle", Category::kUpdate, 0, 900),
      span(0, "this_cycle", Category::kUpdate, 1000, 2000),
  };
  CriticalPathOptions options;
  options.window_start_ns = 1000;
  const CriticalPathReport report = analyze_critical_path(events, options);
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.window_start_ns, 1000);
  EXPECT_EQ(report.window_end_ns, 2000);
  EXPECT_NEAR(report.total_of(PathKind::kCompute), 1000e-9, 1e-15);
  EXPECT_NEAR(report.total_of(PathKind::kUntracked), 0.0, 1e-15);
}

TEST(CriticalPathSummary, RanksContributorsAndSplitsAddUp) {
  const std::vector<TraceEvent> events{
      span(0, "bar_obtain", Category::kRead, 0, 700),
      origin(0, 700, 3),
      span(1, "stage_wait", Category::kWait, 100, 1000, FlowDir::kIn, 3),
  };
  const CriticalPathReport report = analyze_critical_path(events);
  ASSERT_TRUE(report.valid);
  const CriticalPathSummary summary = summarize(report, 2);
  EXPECT_NEAR(summary.attributed_s + summary.untracked_s, summary.wall_s,
              1e-12);
  ASSERT_FALSE(summary.top.empty());
  // The 700ns disk read dominates; contributors are sorted descending.
  EXPECT_EQ(summary.top[0].rank, 0);
  EXPECT_EQ(summary.top[0].phase, "bar_obtain");
  for (std::size_t i = 1; i < summary.top.size(); ++i) {
    EXPECT_GE(summary.top[i - 1].seconds, summary.top[i].seconds);
  }
  EXPECT_NEAR(summary.disk_s, 700e-9, 1e-15);
  EXPECT_NEAR(summary.comm_blocked_s, 300e-9, 1e-15);
}

TEST(CriticalPathKinds, NamesAreStable) {
  EXPECT_STREQ(path_kind_name(PathKind::kCompute), "compute");
  EXPECT_STREQ(path_kind_name(PathKind::kDisk), "disk");
  EXPECT_STREQ(path_kind_name(PathKind::kCommBlocked), "comm_blocked");
  EXPECT_STREQ(path_kind_name(PathKind::kOther), "other");
  EXPECT_STREQ(path_kind_name(PathKind::kUntracked), "untracked");
}

}  // namespace
}  // namespace senkf::telemetry
