// Time-series recorder: bounded rings with counted evictions, counter
// deltas vs gauge levels, reset handling, series merges as the report
// writer unions them, the SENKF_SAMPLE_MS env parser, and the sampler
// period the report writes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "telemetry/timeseries.hpp"

namespace senkf::telemetry {
namespace {

TEST(SeriesData, AppendKeepsNewestAndCountsEvictions) {
  SeriesData s;
  for (int i = 0; i < 6; ++i) {
    s.append(i * 10, static_cast<double>(i), /*capacity=*/4);
  }
  ASSERT_EQ(s.points.size(), 4u);
  EXPECT_EQ(s.dropped, 2u);
  EXPECT_EQ(s.points.front().t_ns, 20);
  EXPECT_EQ(s.points.back().t_ns, 50);
}

TEST(SeriesData, AppendRepairsOutOfOrderPoint) {
  SeriesData s;
  s.append(100, 1.0, 8);
  s.append(50, 2.0, 8);  // stray older sample
  s.append(150, 3.0, 8);
  ASSERT_EQ(s.points.size(), 3u);
  EXPECT_EQ(s.points[0].t_ns, 50);
  EXPECT_EQ(s.points[1].t_ns, 100);
  EXPECT_EQ(s.points[2].t_ns, 150);
}

TEST(SeriesData, MergeInterleavesAndBounds) {
  SeriesData a, b;
  for (int i = 0; i < 4; ++i) a.append(i * 100, 1.0, 8);
  for (int i = 0; i < 4; ++i) b.append(i * 100 + 50, 2.0, 8);
  a.merge(b, /*capacity=*/6);
  ASSERT_EQ(a.points.size(), 6u);
  EXPECT_EQ(a.dropped, 2u);  // merge evicts the two oldest
  for (std::size_t i = 1; i < a.points.size(); ++i) {
    EXPECT_LE(a.points[i - 1].t_ns, a.points[i].t_ns);
  }
  // Oldest two (t=0, t=50) were evicted; the newest survive.
  EXPECT_EQ(a.points.front().t_ns, 100);
  EXPECT_EQ(a.points.back().t_ns, 350);
}

TEST(TimeSeriesRecorder, CountersSampleAsDeltas) {
  Registry registry;
  auto& counter = registry.counter("msgs");
  TimeSeriesRecorder recorder(16);

  counter.add(5);
  recorder.sample_at(1000, registry);
  counter.add(3);
  recorder.sample_at(2000, registry);
  recorder.sample_at(3000, registry);  // idle interval: no point appended

  const auto points = recorder.series("msgs");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].value, 5.0);
  EXPECT_DOUBLE_EQ(points[1].value, 3.0);
  EXPECT_EQ(recorder.samples(), 3u);
}

TEST(TimeSeriesRecorder, GaugesSampleAsLevels) {
  Registry registry;
  auto& gauge = registry.gauge("backlog");
  TimeSeriesRecorder recorder(16);

  gauge.set(7);
  recorder.sample_at(1000, registry);
  gauge.set(2);
  recorder.sample_at(2000, registry);

  const auto points = recorder.series("backlog");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].value, 7.0);
  EXPECT_DOUBLE_EQ(points[1].value, 2.0);
}

TEST(TimeSeriesRecorder, HistogramsSampleCountDeltas) {
  Registry registry;
  auto& hist = registry.histogram("lat_us", {1.0, 10.0});
  TimeSeriesRecorder recorder(16);

  hist.observe(0.5);
  hist.observe(5.0);
  recorder.sample_at(1000, registry);
  const auto points = recorder.series("lat_us");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].value, 2.0);
}

TEST(TimeSeriesRecorder, CounterResetRestartsBaseline) {
  Registry registry;
  auto& counter = registry.counter("msgs");
  TimeSeriesRecorder recorder(16);

  counter.add(10);
  recorder.sample_at(1000, registry);
  registry.reset();
  counter.add(4);
  recorder.sample_at(2000, registry);  // now=4 < prev=10: delta = 4, not wrap

  const auto points = recorder.series("msgs");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[1].value, 4.0);
}

TEST(TimeSeriesRecorder, MemoryIsBoundedByCapacity) {
  Registry registry;
  auto& counter = registry.counter("hot");
  TimeSeriesRecorder recorder(/*capacity=*/8);
  for (int i = 0; i < 100; ++i) {
    counter.add(1);
    recorder.sample_at(i, registry);
  }
  const auto snapshot = recorder.snapshot();
  const auto it = snapshot.find("hot");
  ASSERT_NE(it, snapshot.end());
  EXPECT_EQ(it->second.points.size(), 8u);
  EXPECT_EQ(it->second.dropped, 92u);
}

TEST(SeriesData, MergeAccumulatesEvictionCounters) {
  // Eviction counts must survive a merge: the merged series carries both
  // sides' dropped totals plus any points the merge itself evicted, so a
  // truncated trend never reads as complete.
  SeriesData left;
  for (int i = 0; i < 6; ++i) left.append(i * 10, 1.0, /*capacity=*/4);
  SeriesData right;
  for (int i = 0; i < 5; ++i) right.append(i * 10 + 5, 2.0, /*capacity=*/4);
  ASSERT_EQ(left.dropped, 2u);
  ASSERT_EQ(right.dropped, 1u);
  left.merge(right, /*capacity=*/4);
  EXPECT_EQ(left.points.size(), 4u);
  // 2 + 1 carried in, plus 4 of the 8 surviving points evicted by the
  // merge bound itself.
  EXPECT_EQ(left.dropped, 2u + 1u + 4u);
}

TEST(TimeSeriesRecorder, EvictionCountersPersistAcrossLaterSamples) {
  // Once a ring has dropped points, later in-capacity samples must not
  // reset the counter — /timeseries consumers rely on it to detect
  // truncated history.
  Registry registry;
  auto& gauge = registry.gauge("level");
  TimeSeriesRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    gauge.set(i);
    recorder.sample_at(i * 100, registry);
  }
  auto snapshot = recorder.snapshot();
  ASSERT_EQ(snapshot.at("level").dropped, 6u);
  gauge.set(99);
  recorder.sample_at(10'000, registry);
  snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.at("level").dropped, 7u);
  EXPECT_EQ(snapshot.at("level").points.size(), 4u);
}

TEST(TimeSeriesRecorder, ClearDropsSeriesAndBaseline) {
  Registry registry;
  auto& counter = registry.counter("msgs");
  TimeSeriesRecorder recorder(16);
  counter.add(5);
  recorder.sample_at(1000, registry);
  recorder.clear();
  EXPECT_TRUE(recorder.series("msgs").empty());
  EXPECT_EQ(recorder.samples(), 0u);
  // After clear, the next sample re-seeds the delta baseline from zero.
  counter.add(1);
  recorder.sample_at(2000, registry);
  const auto points = recorder.series("msgs");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].value, 6.0);
}

TEST(SampleEnv, ParsesIntervalAndKillSwitch) {
  EXPECT_FALSE(parse_sample_env(nullptr).enabled);
  EXPECT_FALSE(parse_sample_env("").enabled);
  EXPECT_FALSE(parse_sample_env("off").enabled);
  EXPECT_FALSE(parse_sample_env("0").enabled);
  EXPECT_FALSE(parse_sample_env("false").enabled);
  EXPECT_FALSE(parse_sample_env("-5").enabled);
  EXPECT_FALSE(parse_sample_env("abc").enabled);
  EXPECT_FALSE(parse_sample_env("10x").enabled);

  const SampleEnvConfig config = parse_sample_env("250");
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.interval_ms, 250);
}

TEST(SampleEnv, IntervalIsThePeriodTheSamplerStartedWith) {
  // Nothing else in this binary starts the sampler.
  EXPECT_EQ(sampler_interval_ms(), 0);
  ::setenv("SENKF_SAMPLE_MS", "7", 1);
  ASSERT_TRUE(ensure_sampler_started());
  // A running sampler keeps the period it started with.
  ::setenv("SENKF_SAMPLE_MS", "9", 1);
  EXPECT_TRUE(ensure_sampler_started());
  EXPECT_EQ(sampler_interval_ms(), 7);
  ::unsetenv("SENKF_SAMPLE_MS");
  // The atexit report export runs after the sampler stopped.
  stop_sampler();
  EXPECT_EQ(sampler_interval_ms(), 7);
}

}  // namespace
}  // namespace senkf::telemetry
