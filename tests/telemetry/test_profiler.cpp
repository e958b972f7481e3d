// Sampling profiler (DESIGN.md §16): env parsing, phase-frame hooks on
// the span path, sample attribution to the innermost span by rank,
// collapsed-stack export, the report's "profile" section, and the
// zero-work-when-off guarantee the 2% overhead budget rests on.
#include "telemetry/liveops/profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "test_json.hpp"

namespace senkf::telemetry::liveops {
namespace {

/// Burns CPU inside a named span until `wall_ms` elapsed — gives both
/// profiler modes something to attribute.
void burn_in_span(const char* name, int wall_ms) {
  const TraceSpan span(Category::kUpdate, name);
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(wall_ms);
  volatile double sink = 1.0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 4096; ++i) sink = sink * 1.0000001 + 0.5;
  }
  (void)sink;
}

TEST(ProfileEnv, ParsesModesAndClampsRates) {
  EXPECT_FALSE(parse_profile_env(nullptr).enabled);
  EXPECT_FALSE(parse_profile_env("").enabled);
  EXPECT_FALSE(parse_profile_env("off").enabled);
  EXPECT_FALSE(parse_profile_env("garbage").enabled);

  const ProfileEnvConfig on = parse_profile_env("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_FALSE(on.wall);
  EXPECT_EQ(on.hz, kDefaultProfileHz);

  const ProfileEnvConfig hz = parse_profile_env("250");
  EXPECT_TRUE(hz.enabled);
  EXPECT_EQ(hz.hz, 250);

  const ProfileEnvConfig cpu = parse_profile_env("cpu:50");
  EXPECT_TRUE(cpu.enabled);
  EXPECT_FALSE(cpu.wall);
  EXPECT_EQ(cpu.hz, 50);

  const ProfileEnvConfig wall = parse_profile_env("wall");
  EXPECT_TRUE(wall.enabled);
  EXPECT_TRUE(wall.wall);
  EXPECT_EQ(wall.hz, kDefaultProfileHz);

  const ProfileEnvConfig wall_hz = parse_profile_env("wall:10");
  EXPECT_TRUE(wall_hz.enabled);
  EXPECT_TRUE(wall_hz.wall);
  EXPECT_EQ(wall_hz.hz, 10);

  EXPECT_EQ(parse_profile_env("0").enabled, false);
  EXPECT_EQ(parse_profile_env("cpu:100000").hz, 1000);  // clamped
}

TEST(Profiler, HookBitFollowsStartStop) {
  stop_profiler();
  EXPECT_EQ(span_hooks() & kSpanHookProfile, 0);
  start_profiler(50, /*wall=*/true);
  EXPECT_NE(span_hooks() & kSpanHookProfile, 0);
  stop_profiler();
  EXPECT_EQ(span_hooks() & kSpanHookProfile, 0);
  EXPECT_FALSE(profiler_running());
}

TEST(Profiler, WallModeAttributesSamplesToInnermostSpan) {
  stop_profiler();
  clear_profile();
  start_profiler(500, /*wall=*/true);
  set_thread_rank(3);
  {
    const TraceSpan outer(Category::kRead, "outer_phase");
    burn_in_span("inner_phase", 120);
  }
  stop_profiler();

  const ProfileStats stats = profiler_stats();
  EXPECT_TRUE(stats.ever_started);
  EXPECT_GE(stats.samples, 1u);

  bool found = false;
  for (const ProfileBucket& bucket : profile_buckets()) {
    if (bucket.stack == "outer_phase;inner_phase") {
      found = true;
      EXPECT_EQ(bucket.rank, 3);
      EXPECT_GE(bucket.count, 1u);
    }
  }
  EXPECT_TRUE(found) << "no bucket attributed to outer_phase;inner_phase";

  const std::string collapsed = render_collapsed();
  EXPECT_NE(collapsed.find("outer_phase;inner_phase "),
            std::string::npos);
  set_thread_rank(-1);
  clear_profile();
}

TEST(Profiler, CpuModeSamplesABusyPhase) {
  stop_profiler();
  clear_profile();
  start_profiler(400, /*wall=*/false);
  burn_in_span("cpu_burn", 150);
  stop_profiler();
  const ProfileStats stats = profiler_stats();
  // SIGPROF delivery needs actual CPU burn; 150ms at 400 Hz leaves a
  // wide margin even on a loaded CI box.
  EXPECT_GE(stats.samples, 1u);
  bool found = false;
  for (const ProfileBucket& bucket : profile_buckets()) {
    if (bucket.stack.find("cpu_burn") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << "no CPU sample landed in cpu_burn";
  clear_profile();
}

TEST(Profiler, SectionJsonIsSchemaShaped) {
  stop_profiler();
  clear_profile();
  start_profiler(500, /*wall=*/true);
  burn_in_span("section_phase", 60);
  stop_profiler();

  const testjson::Value doc = testjson::parse(profile_section_json());
  EXPECT_TRUE(doc.at("enabled").as_bool());
  EXPECT_EQ(doc.at("mode").as_string(), "wall");
  EXPECT_EQ(doc.at("hz").as_number(), 500.0);
  EXPECT_GE(doc.at("samples").as_number(), 1.0);
  EXPECT_TRUE(doc.has("dropped"));
  EXPECT_TRUE(doc.has("torn"));
  EXPECT_TRUE(doc.at("phases").as_object().count("section_phase"));
  ASSERT_FALSE(doc.at("top").as_array().empty());
  const testjson::Value& top = doc.at("top").as_array().front();
  EXPECT_TRUE(top.has("stack"));
  EXPECT_TRUE(top.has("count"));
  clear_profile();
}

TEST(Profiler, SpansAreSafeWithProfilerOff) {
  stop_profiler();
  // No crash, no samples: the hook bit is clear so spans skip the
  // phase-stack entirely (the zero-hot-path-work guarantee).
  clear_profile();
  burn_in_span("unprofiled", 5);
  EXPECT_EQ(profiler_stats().samples, 0u);
}

TEST(Profiler, RestartAccumulatesFreshSamples) {
  stop_profiler();
  clear_profile();
  start_profiler(500, /*wall=*/true);
  burn_in_span("first_run", 40);
  stop_profiler();
  const std::uint64_t first = profiler_stats().samples;
  EXPECT_GE(first, 1u);
  start_profiler(500, /*wall=*/true);
  burn_in_span("second_run", 40);
  stop_profiler();
  EXPECT_GT(profiler_stats().samples, first);
  clear_profile();
}

}  // namespace
}  // namespace senkf::telemetry::liveops
