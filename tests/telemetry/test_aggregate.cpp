// Units for the run-level metric views (DESIGN.md §11): gauges keep
// distribution stats, histograms place values in "le" buckets, registry
// captures are race-free, read skew finds the straggler rank, group and
// stage, and the run report writes the snapshot as schema-valid JSON.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "telemetry/aggregate.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "test_json.hpp"

namespace senkf::telemetry {
namespace {

TEST(GaugeStatTest, ObserveTracksDistribution) {
  GaugeStat stat;
  stat.observe(4);
  stat.observe(-2);
  stat.observe(10);
  EXPECT_EQ(stat.min, -2);
  EXPECT_EQ(stat.max, 10);
  EXPECT_EQ(stat.count, 3u);
  EXPECT_DOUBLE_EQ(stat.sum, 12.0);
  EXPECT_DOUBLE_EQ(stat.sumsq, 16.0 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(stat.mean(), 4.0);
}

TEST(HistogramStateTest, ObservePlacesValuesInLeBuckets) {
  HistogramState h;
  h.bounds = {1.0, 10.0};
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);  // past the last bound: the overflow bucket
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.buckets, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(h.sum, 105.5);
}

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot s;
  s.counters["io_read_ns"] = 1234567;
  s.counters["messages"] = 42;
  s.gauges["backlog"].observe(3);
  s.gauges["backlog"].observe(-1);
  s.observe_histogram("lat_us", {10.0, 100.0, 1000.0}, 55.0);
  s.observe_histogram("lat_us", {10.0, 100.0, 1000.0}, 5000.0);
  RankSample r;
  r.rank = 7;
  r.is_io = 1;
  r.group = 2;
  r.read_s = 0.25;
  r.obtain_s = 0.5;
  r.send_s = 0.125;
  r.wait_s = 0.0;
  r.update_s = 0.0;
  r.messages = 9;
  r.retries = 1;
  r.reissued = 2;
  r.backlog_peak = 4;
  s.ranks.push_back(r);
  return s;
}

TEST(SnapshotTest, ConcurrentObserversAndCaptureAreRaceFree) {
  // Exercised under -DSENKF_SANITIZE=thread in CI: writers hammer the
  // registry while captures run; values only need to be sane, not a
  // consistent cut.
  Registry registry;
  registry.counter("warm");  // pre-register so lookups contend too
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 2000; ++i) {
        registry.counter("warm").add(1);
        registry.gauge("level").set(i);
        registry.histogram("h_us", {10.0, 100.0}).observe(i % 200);
      }
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = MetricsSnapshot::capture(registry);
    EXPECT_GE(snap.counter("warm"), last);
    last = snap.counter("warm");
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot final_snap = MetricsSnapshot::capture(registry);
  EXPECT_EQ(final_snap.counter("warm"), 8000u);
  EXPECT_EQ(final_snap.counter("missing"), 0u);
  EXPECT_EQ(final_snap.histograms.at("h_us").count, 8000u);
}

RankSample io_sample(std::int32_t rank, std::int32_t group, double obtain_s) {
  RankSample r;
  r.rank = rank;
  r.is_io = 1;
  r.group = group;
  r.obtain_s = obtain_s;
  return r;
}

TEST(SkewTest, ReadSkewFindsTheStraggler) {
  std::vector<RankSample> ranks{io_sample(4, 0, 1.0), io_sample(5, 0, 1.0),
                                io_sample(6, 1, 4.0)};
  RankSample comp;  // computation samples never enter read skew
  comp.rank = 0;
  comp.obtain_s = 100.0;
  ranks.push_back(comp);

  const SkewStats skew = read_skew(ranks);
  EXPECT_EQ(skew.samples, 3u);
  EXPECT_DOUBLE_EQ(skew.max_s, 4.0);
  EXPECT_DOUBLE_EQ(skew.mean_s, 2.0);
  EXPECT_DOUBLE_EQ(skew.ratio, 2.0);
  EXPECT_EQ(skew.max_rank, 6);

  const SkewStats group = group_read_skew(ranks);
  EXPECT_EQ(group.samples, 2u);
  EXPECT_DOUBLE_EQ(group.max_s, 4.0);
  EXPECT_EQ(group.max_rank, 1);  // slowest *group* id
}

TEST(SkewTest, EmptyAndSingleRankAreWellDefined) {
  EXPECT_DOUBLE_EQ(read_skew({}).ratio, 0.0);
  EXPECT_EQ(read_skew({}).samples, 0u);
  const std::vector<RankSample> one{io_sample(3, 0, 2.0)};
  const SkewStats skew = read_skew(one);
  EXPECT_DOUBLE_EQ(skew.ratio, 1.0);
  EXPECT_EQ(skew.max_rank, 3);
  EXPECT_EQ(drain_backlog_peak({}), 0u);
}

TEST(SkewTest, DrainBacklogPeakIsTheMaxOverCompRanks) {
  std::vector<RankSample> ranks;
  RankSample a;
  a.rank = 0;
  a.backlog_peak = 2;
  RankSample b;
  b.rank = 1;
  b.backlog_peak = 5;
  ranks.push_back(a);
  ranks.push_back(b);
  EXPECT_EQ(drain_backlog_peak(ranks), 5u);
}

// Appends one rank's per-stage samples, as senkf() reads them off its
// run ledger: the stage-l sample carries that stage's obtain_s.
void add_stages(std::vector<std::vector<RankSample>>& stages,
                RankSample sample, const std::vector<double>& obtain_s) {
  for (std::size_t stage = 0; stage < obtain_s.size(); ++stage) {
    if (stages.size() <= stage) stages.resize(stage + 1);
    sample.obtain_s = obtain_s[stage];
    stages[stage].push_back(sample);
  }
}

TEST(SkewTest, StageReadSkewRebuildsStagesFromObtainSeries) {
  // Four I/O ranks in two concurrent groups, rank 6 slow in stage 1
  // only.  Computation rank 0's samples and I/O rank 8 (no samples at
  // all) must not enter any stage.
  RankSample comp;
  comp.rank = 0;
  std::vector<std::vector<RankSample>> per_stage;
  add_stages(per_stage, comp, {9.0, 9.0, 9.0});
  add_stages(per_stage, io_sample(4, 0, 0.0), {0.01, 0.01, 0.01});
  add_stages(per_stage, io_sample(5, 0, 0.0), {0.01, 0.01, 0.01});
  add_stages(per_stage, io_sample(6, 1, 0.0), {0.01, 0.05, 0.01});
  add_stages(per_stage, io_sample(7, 1, 0.0), {0.01, 0.01, 0.01});
  add_stages(per_stage, io_sample(8, 1, 0.0), {});

  const std::vector<StageSkew> stages = stage_read_skew(per_stage);
  ASSERT_EQ(stages.size(), 3u);
  for (const std::size_t balanced : {0u, 2u}) {
    EXPECT_EQ(stages[balanced].read.samples, 4u);
    EXPECT_NEAR(stages[balanced].read.ratio, 1.0, 1e-12);
    EXPECT_NEAR(stages[balanced].group.ratio, 1.0, 1e-12);
  }
  const SkewStats& slow = stages[1].read;
  EXPECT_EQ(slow.samples, 4u);
  EXPECT_EQ(slow.max_rank, 6);
  EXPECT_DOUBLE_EQ(slow.max_s, 0.05);
  EXPECT_NEAR(slow.mean_s, 0.02, 1e-12);
  EXPECT_GT(slow.ratio, 2.0);
  // Group 1 (ranks 6, 7) read 0.06 s in stage 1 against group 0's 0.02 s.
  const SkewStats& group = stages[1].group;
  EXPECT_EQ(group.samples, 2u);
  EXPECT_EQ(group.max_rank, 1);
  EXPECT_NEAR(group.max_s, 0.06, 1e-12);
  EXPECT_NEAR(group.ratio, 1.5, 1e-12);
}

TEST(JsonWriterTest, WritesEscapedNestedDocuments) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.key("name").value("line1\nline2\t\"q\"\\");
    json.key("nums").begin_array();
    json.value(std::int64_t{-3});
    json.value(std::uint64_t{18446744073709551615ull});
    json.value(0.5);
    json.end_array();
    json.key("flag").value(true);
    json.key("nested").begin_object().key("k").value("v").end_object();
    json.end_object();
  }
  const testjson::Value doc = testjson::parse(out.str());
  EXPECT_EQ(doc.at("name").as_string(), "line1\nline2\t\"q\"\\");
  ASSERT_EQ(doc.at("nums").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("nums").as_array()[0].as_number(), -3.0);
  EXPECT_DOUBLE_EQ(doc.at("nums").as_array()[2].as_number(), 0.5);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v");
}

TEST(ReportTest, ParseReportEnv) {
  EXPECT_EQ(parse_report_env(nullptr).export_path, "");
  EXPECT_EQ(parse_report_env("").export_path, "");
  EXPECT_EQ(parse_report_env("off").export_path, "");
  EXPECT_EQ(parse_report_env("0").export_path, "");
  EXPECT_EQ(parse_report_env("false").export_path, "");
  EXPECT_EQ(parse_report_env("on").export_path, "senkf_report.json");
  EXPECT_EQ(parse_report_env("1").export_path, "senkf_report.json");
  EXPECT_EQ(parse_report_env("true").export_path, "senkf_report.json");
  EXPECT_EQ(parse_report_env("/tmp/x.json").export_path, "/tmp/x.json");
}

TEST(ReportTest, WriteRunReportEmitsSchemaValidJson) {
  RunReport report;
  report.kind = "senkf";
  report.config.emplace_back("layers", "3");
  report.phases["io_read_s"] = 0.5;
  report.drift["read"] = 0.25;
  report.skew["read.ratio"] = 1.5;
  report.straggler_warns = 2;
  report.dropped_members = {4};
  report.aggregate = sample_snapshot();
  set_run_report(report);

  std::ostringstream out;
  write_run_report(out);
  const testjson::Value doc = testjson::parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), "senkf-run-report");
  EXPECT_DOUBLE_EQ(doc.at("version").as_number(), 6.0);
  EXPECT_FALSE(doc.at("partial").as_bool());
  const testjson::Value& run = doc.at("run");
  EXPECT_EQ(run.at("kind").as_string(), "senkf");
  EXPECT_TRUE(run.at("valid").as_bool());
  EXPECT_EQ(run.at("config").at("layers").as_string(), "3");
  EXPECT_DOUBLE_EQ(run.at("phases").at("io_read_s").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(run.at("drift").at("read").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(run.at("straggler_warns").as_number(), 2.0);
  ASSERT_EQ(run.at("ranks").as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(run.at("ranks").as_array()[0].at("rank").as_number(), 7.0);
  const testjson::Value& agg = run.at("aggregate");
  EXPECT_DOUBLE_EQ(agg.at("counters").at("messages").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(agg.at("gauges").at("backlog").at("max").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(agg.at("histograms").at("lat_us").at("count").as_number(),
                   2.0);
  // The run's own "*_us" histograms get latency quantiles too.
  EXPECT_DOUBLE_EQ(doc.at("latency").at("lat_us").at("count").as_number(),
                   2.0);
  EXPECT_TRUE(doc.has("metrics"));
  EXPECT_TRUE(doc.has("faults"));
  // v6 carries the watchdog section but no time series and no profile:
  // per-stage and per-phase times are the ledger's and the trace's.
  EXPECT_TRUE(doc.has("watchdog"));
  EXPECT_FALSE(doc.has("timeseries"));
  EXPECT_FALSE(doc.has("profile"));

  mark_run_partial();
  std::ostringstream partial_out;
  write_run_report(partial_out);
  EXPECT_TRUE(
      testjson::parse(partial_out.str()).at("partial").as_bool());
}

}  // namespace
}  // namespace senkf::telemetry
