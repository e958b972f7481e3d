// Span tracer: nesting/ordering, rank/stage attribution, env parsing,
// concurrent recording (race-checked under -DSENKF_SANITIZE=thread), and
// Chrome-trace export validity via the shared mini JSON parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/phase.hpp"
#include "telemetry/trace.hpp"
#include "test_json.hpp"

namespace senkf::telemetry {
namespace {

// Tracing state is process-global; each test starts from a clean slate.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(true);
    clear_events();
    set_thread_rank(-1);
  }
  void TearDown() override {
    set_tracing_enabled(false);
    clear_events();
    set_thread_rank(-1);
  }
};

TEST_F(TraceTest, RecordsSpanWithAttributes) {
  set_thread_rank(7);
  { TraceSpan span(Category::kRead, "bar_read", 3); }
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "bar_read");
  EXPECT_EQ(events[0].category, Category::kRead);
  EXPECT_EQ(events[0].rank, 7);
  EXPECT_EQ(events[0].stage, 3);
  EXPECT_LE(events[0].t_start_ns, events[0].t_end_ns);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  set_tracing_enabled(false);
  { TraceSpan span(Category::kRead, "invisible"); }
  EXPECT_TRUE(collect_events().empty());
}

TEST_F(TraceTest, CountedSpanAddsItsTracedIntervalToItsCounter) {
  Counter counter;
  set_thread_rank(5);
  {
    CountedSpan span(Category::kWait, "stage_wait", counter, 2);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& event = events[0];
  EXPECT_STREQ(event.name, "stage_wait");
  EXPECT_EQ(event.category, Category::kWait);
  EXPECT_EQ(event.rank, 5);
  EXPECT_EQ(event.stage, 2);
  // One clock pair: the counter holds exactly the recorded interval.
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(event.t_end_ns - event.t_start_ns));
  EXPECT_GE(counter.value(), 50'000u);

  // Untraced, the counter still accumulates and no event is recorded.
  set_tracing_enabled(false);
  const std::uint64_t traced = counter.value();
  {
    CountedSpan span(Category::kWait, "stage_wait", counter, 2);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_GE(counter.value(), traced + 50'000u);
  EXPECT_EQ(collect_events().size(), 1u);
}

TEST_F(TraceTest, NestedSpansAreContainedAndOrdered) {
  {
    TraceSpan outer(Category::kUpdate, "outer");
    TraceSpan inner(Category::kWait, "inner");
    // inner destructs first, so it is recorded first.
  }
  auto events = collect_events();  // sorted by t_start
  ASSERT_EQ(events.size(), 2u);
  const auto& outer = events[0];
  const auto& inner = events[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_GE(inner.t_start_ns, outer.t_start_ns);
  EXPECT_LE(inner.t_end_ns, outer.t_end_ns);
}

TEST_F(TraceTest, SetStageAfterConstruction) {
  {
    TraceSpan span(Category::kRecv, "drain");
    span.set_stage(5);
  }
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stage, 5);
}

TEST_F(TraceTest, ConcurrentRecordingKeepsEveryEvent) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;  // > chunk capacity / threads
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      set_thread_rank(t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span(Category::kTask, "worker_span", i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto events = collect_events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // Per-rank: all spans present, and (being same-thread) their recorded
  // stages must be recoverable as 0..N-1.
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::int32_t> stages;
    for (const auto& event : events) {
      if (event.rank == t) stages.push_back(event.stage);
    }
    ASSERT_EQ(stages.size(), static_cast<std::size_t>(kSpansPerThread));
    std::sort(stages.begin(), stages.end());
    for (int i = 0; i < kSpansPerThread; ++i) EXPECT_EQ(stages[i], i);
  }
}

TEST_F(TraceTest, CollectIsSafeWhileRecording) {
  constexpr int kSpans = 20000;
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    for (int i = 0; i < kSpans; ++i) {
      TraceSpan span(Category::kOther, "background");
    }
    done.store(true);
  });
  while (!done.load()) {
    const auto events = collect_events();  // must not crash or tear
    for (const auto& event : events) {
      EXPECT_LE(event.t_start_ns, event.t_end_ns);
    }
  }
  recorder.join();
  EXPECT_EQ(collect_events().size(), static_cast<std::size_t>(kSpans));
}

TEST_F(TraceTest, ChromeExportIsValidJson) {
  set_thread_rank(2);
  { TraceSpan span(Category::kRead, "bar_read", 1); }
  { TraceSpan span(Category::kSend, "block_scatter"); }
  std::ostringstream out;
  write_chrome_trace(out);

  const testjson::Value root = testjson::parse(out.str());
  const auto& events = root.at("traceEvents").as_array();
  std::size_t spans = 0;
  for (const auto& event : events) {
    const std::string ph = event.at("ph").as_string();
    ASSERT_TRUE(ph == "X" || ph == "M" || ph == "s" || ph == "t" ||
                ph == "f");
    if (ph != "X") continue;
    ++spans;
    EXPECT_FALSE(event.at("name").as_string().empty());
    EXPECT_FALSE(event.at("cat").as_string().empty());
    EXPECT_GE(event.at("ts").as_number(), 0.0);
    EXPECT_GE(event.at("dur").as_number(), 0.0);
    EXPECT_EQ(event.at("pid").as_number(), 3.0);  // rank 2 → pid 3
  }
  EXPECT_EQ(spans, 2u);
}

TEST_F(TraceTest, FlowIdsAreUniqueAndNonzero) {
  const auto a = alloc_flow_id();
  const auto b = alloc_flow_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, SetFlowIgnoresUntracedContext) {
  {
    TraceSpan span(Category::kWait, "stage_wait");
    span.set_flow(FlowDir::kIn, 0);  // span_id 0 = sender wasn't tracing
  }
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].flow, FlowDir::kNone);
  EXPECT_EQ(events[0].flow_id, 0u);
}

TEST_F(TraceTest, ChromeExportEmitsFlowEventTriplet) {
  set_thread_rank(1);
  const std::uint64_t id = alloc_flow_id();
  {
    TraceEvent origin;
    origin.name = "msg_send";
    origin.t_start_ns = origin.t_end_ns = now_ns();
    origin.rank = 1;
    origin.flow_id = id;
    origin.category = Category::kSend;
    origin.flow = FlowDir::kOut;
    record_event(origin);
  }
  {
    TraceSpan step(Category::kRecv, "drain_block");
    step.set_flow(FlowDir::kStep, id);
  }
  {
    TraceSpan finish(Category::kWait, "stage_wait");
    finish.set_flow(FlowDir::kIn, id);
  }
  std::ostringstream out;
  write_chrome_trace(out);

  const testjson::Value root = testjson::parse(out.str());
  bool saw_s = false, saw_t = false, saw_f = false;
  for (const auto& event : root.at("traceEvents").as_array()) {
    const std::string ph = event.at("ph").as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    // Flow events share one name/cat/id so Perfetto joins the arrow.
    EXPECT_EQ(event.at("name").as_string(), "parcomm");
    EXPECT_EQ(event.at("cat").as_string(), "flow");
    EXPECT_EQ(event.at("id").as_number(), static_cast<double>(id));
    if (ph == "s") saw_s = true;
    if (ph == "t") saw_t = true;
    if (ph == "f") {
      saw_f = true;
      // Binding point "enclosing": the arrow ends on the wait span.
      EXPECT_EQ(event.at("bp").as_string(), "e");
    }
  }
  EXPECT_TRUE(saw_s);
  EXPECT_TRUE(saw_t);
  EXPECT_TRUE(saw_f);
}

TEST(TraceEnv, ParsesKillSwitchValues) {
  EXPECT_FALSE(parse_trace_env(nullptr).enabled);
  EXPECT_FALSE(parse_trace_env("").enabled);
  EXPECT_FALSE(parse_trace_env("off").enabled);
  EXPECT_FALSE(parse_trace_env("0").enabled);

  const auto on = parse_trace_env("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.export_path, "senkf_trace.json");

  const auto path = parse_trace_env("/tmp/my_trace.json");
  EXPECT_TRUE(path.enabled);
  EXPECT_EQ(path.export_path, "/tmp/my_trace.json");
}

TEST(TraceClock, MonotonicNowNs) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(TraceCategories, NamesAreStable) {
  EXPECT_STREQ(category_name(Category::kRead), "read");
  EXPECT_STREQ(category_name(Category::kSend), "send");
  EXPECT_STREQ(category_name(Category::kRecv), "recv");
  EXPECT_STREQ(category_name(Category::kWait), "wait");
  EXPECT_STREQ(category_name(Category::kUpdate), "update");
}

}  // namespace
}  // namespace senkf::telemetry
