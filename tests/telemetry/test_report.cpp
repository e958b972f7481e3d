// Units for the run report (DESIGN.md §11): the shared JSON writer
// escapes and nests, SENKF_REPORT parses, and the report writes the
// run's rank samples and metric rows — the registry's and the run's own,
// one MetricRow representation — as schema-valid JSON.
#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/json_writer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "test_json.hpp"

namespace senkf::telemetry {
namespace {

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
  // The run's own rows come from a local registry, as S-EnKF cuts its
  // acquisition histogram into a row.
  Registry run_metrics;
  run_metrics.counter("messages").add(42);
  run_metrics.gauge("backlog").set(3.0);
  Histogram& lat = run_metrics.histogram("lat_us", {10.0, 100.0, 1000.0});
  lat.observe(55.0);
  lat.observe(5000.0);  // past the last bound: the overflow bucket
  Registry::global().gauge("report_test.level").set(-2.5);

  RunReport report;
  report.kind = "senkf";
  report.config.emplace_back("layers", "3");
  report.phases["io_read_s"] = 0.5;
  report.drift["read"] = 0.25;
  report.skew["read.ratio"] = 1.5;
  report.straggler_warns = 2;
  report.dropped_members = {4};
  RankSample r;
  r.rank = 7;
  r.is_io = 1;
  r.group = 2;
  r.read_s = 0.25;
  r.obtain_s = 0.5;
  r.send_s = 0.125;
  r.messages = 9;
  r.retries = 1;
  r.backlog_peak = 4;
  report.ranks.push_back(r);
  report.aggregate = run_metrics.rows();
  set_run_report(report);

  std::ostringstream out;
  write_run_report(out);
  const testjson::Value doc = testjson::parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), "senkf-run-report");
  EXPECT_DOUBLE_EQ(doc.at("version").as_number(), 8.0);
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
  // v7 dropped the per-rank re-issue count.
  EXPECT_FALSE(run.at("ranks").as_array()[0].has("reissued"));
  const testjson::Value& agg = run.at("aggregate");
  EXPECT_DOUBLE_EQ(agg.at("counters").at("messages").as_number(), 42.0);
  EXPECT_EQ(agg.at("gauges").at("backlog").as_number(), 3.0);
  const testjson::Value& hist = agg.at("histograms").at("lat_us");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 5055.0);
  ASSERT_EQ(hist.at("buckets").as_array().size(), 4u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").as_array()[3].as_number(), 1.0);
  // Quantiles are written once, with the histogram they derive from.
  EXPECT_GT(hist.at("p50").as_number(), 10.0);
  // A registry gauge row is its value.
  EXPECT_EQ(doc.at("metrics").at("gauges").at("report_test.level").as_number(),
            -2.5);
  // The report carries the watchdog section, complete even when the
  // monitor never started, and no copy of "metrics": no time series or
  // profile (dropped in v6), no latency, analysis or faults view
  // (dropped in v8).
  const testjson::Value& watchdog = doc.at("watchdog");
  for (const char* key :
       {"enabled", "running", "scale", "armed", "fired", "status", "overruns"}) {
    EXPECT_TRUE(watchdog.has(key)) << key;
  }
  for (const char* dropped :
       {"timeseries", "profile", "latency", "analysis", "faults"}) {
    EXPECT_FALSE(doc.has(dropped)) << dropped;
  }

  mark_run_partial();
  std::ostringstream partial_out;
  write_run_report(partial_out);
  EXPECT_TRUE(
      testjson::parse(partial_out.str()).at("partial").as_bool());
}

}  // namespace
}  // namespace senkf::telemetry
