// Live operations plane (DESIGN.md §16): Prometheus exposition of the
// registry, the health document, the SENKF_HTTP env parsing, the
// endpoint end-to-end over a real socket, and the ordered
// telemetry::shutdown() a mid-cycle exit relies on (this file runs under
// -DSENKF_SANITIZE=address in the CI sanitizer legs).
#include "telemetry/liveops/liveops.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/http_server.hpp"
#include "telemetry/liveops/exposition.hpp"
#include "telemetry/liveops/watchdog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/shutdown.hpp"
#include "test_json.hpp"

namespace senkf::telemetry::liveops {
namespace {

TEST(Exposition, SanitizesMetricNames) {
  EXPECT_EQ(sanitize_metric_name("senkf.read.retries"),
            "senkf_read_retries");
  EXPECT_EQ(sanitize_metric_name("already_legal:name"),
            "already_legal:name");
  EXPECT_EQ(sanitize_metric_name("9starts.with.digit"),
            "_9starts_with_digit");
  EXPECT_EQ(sanitize_metric_name("spaces and-dashes"),
            "spaces_and_dashes");
}

TEST(Exposition, RendersCounterGaugeAndHistogram) {
  std::vector<MetricRow> rows;
  MetricRow counter;
  counter.name = "senkf.messages";
  counter.kind = MetricRow::Kind::kCounter;
  counter.counter = 7;
  rows.push_back(counter);
  MetricRow gauge;
  gauge.name = "senkf.backlog";
  gauge.kind = MetricRow::Kind::kGauge;
  gauge.gauge = -3.0;
  rows.push_back(gauge);
  MetricRow hist;
  hist.name = "senkf.latency.us";
  hist.kind = MetricRow::Kind::kHistogram;
  hist.bounds = {1.0, 10.0, 100.0};
  hist.buckets = {2, 3, 0, 1};  // per-bucket counts; overflow last
  hist.count = 6;
  hist.sum = 42.5;
  rows.push_back(hist);

  const std::string text = render_prometheus(rows);
  EXPECT_NE(text.find("# TYPE senkf_messages counter"), std::string::npos);
  EXPECT_NE(text.find("senkf_messages 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE senkf_backlog gauge"), std::string::npos);
  EXPECT_NE(text.find("senkf_backlog -3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE senkf_latency_us histogram"),
            std::string::npos);
  // Buckets are cumulative in the exposition: 2, 5, 5, then +Inf = count.
  EXPECT_NE(text.find("senkf_latency_us_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("senkf_latency_us_bucket{le=\"10\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("senkf_latency_us_bucket{le=\"100\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("senkf_latency_us_bucket{le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("senkf_latency_us_sum 42.5"), std::string::npos);
  EXPECT_NE(text.find("senkf_latency_us_count 6"), std::string::npos);
}

// A gauge holds a double in its own unit, and a histogram's sum is a
// double: /metrics and the run report must both read back the exact
// value the registry holds, not a rounded or integer copy.
TEST(Exposition, ValuesReadBackExactly) {
  auto& registry = Registry::global();
  const std::vector<std::pair<std::string, double>> gauges = {
      {"exact.gauge.tenth", 0.1},
      {"exact.gauge.negative", -2.5},
      {"exact.gauge.two_pow_53", 9007199254740992.0}};
  for (const auto& [name, value] : gauges) registry.gauge(name).set(value);
  const double sum = 1234567.891;
  registry.histogram("exact.histogram", {1.0}).observe(sum);

  const std::string text = render_prometheus();
  const auto scraped = [&text](const std::string& series) {
    const std::string line = "\n" + series + " ";
    const auto at = text.find(line);
    if (at == std::string::npos) {
      ADD_FAILURE() << "no sample " << series;
      return std::numeric_limits<double>::quiet_NaN();
    }
    return std::strtod(text.c_str() + at + line.size(), nullptr);
  };
  for (const auto& [name, value] : gauges) {
    EXPECT_EQ(scraped(sanitize_metric_name(name)), value) << name;
  }
  EXPECT_EQ(scraped("exact_histogram_sum"), sum);

  std::ostringstream report;
  write_run_report(report);
  const testjson::Value doc = testjson::parse(report.str());
  const testjson::Value& metrics = doc.at("metrics");
  for (const auto& [name, value] : gauges) {
    EXPECT_EQ(metrics.at("gauges").at(name).as_number(), value) << name;
  }
  EXPECT_EQ(
      metrics.at("histograms").at("exact.histogram").at("sum").as_number(),
      sum);
}

TEST(Exposition, GlobalRegistryRendersEveryRow) {
  Registry::global().counter("liveops.test.exposition").add(11);
  const std::string text = render_prometheus();
  EXPECT_NE(text.find("liveops_test_exposition 11"), std::string::npos);
}

TEST(HttpEnv, ParsesPortsAndRejectsGarbage) {
  EXPECT_FALSE(parse_http_env(nullptr).enabled);
  EXPECT_FALSE(parse_http_env("").enabled);
  EXPECT_FALSE(parse_http_env("off").enabled);
  EXPECT_FALSE(parse_http_env("not-a-port").enabled);
  EXPECT_FALSE(parse_http_env("70000").enabled);
  EXPECT_FALSE(parse_http_env("-1").enabled);
  const HttpEnvConfig ephemeral = parse_http_env("0");
  EXPECT_TRUE(ephemeral.enabled);
  EXPECT_EQ(ephemeral.port, 0);
  const HttpEnvConfig fixed = parse_http_env("9109");
  EXPECT_TRUE(fixed.enabled);
  EXPECT_EQ(fixed.port, 9109);
}

TEST(LiveopsHttp, ServesMetricsHealthOverSocket) {
  Registry::global().counter("liveops.test.endpoint").add(5);

  const std::uint16_t port = start_liveops_http(0);
  ASSERT_NE(port, 0);
  ASSERT_TRUE(liveops_http_running());
  EXPECT_EQ(liveops_port(), port);

  int status = 0;
  const std::string metrics = net::http_get(port, "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("liveops_test_endpoint 5"), std::string::npos);

  // No job table, time series or profile is served: the endpoint
  // describes one process's run from the registry and the watchdog.
  for (const char* path : {"/jobs", "/timeseries", "/profile"}) {
    net::http_get(port, path, &status);
    EXPECT_EQ(status, 404) << path;
  }

  const std::string health = net::http_get(port, "/health", &status);
  // No watchdog overruns in this process: healthy.
  EXPECT_EQ(status, 200);
  const testjson::Value health_doc = testjson::parse(health);
  EXPECT_EQ(health_doc.at("status").as_string(), "ok");
  EXPECT_FALSE(health_doc.has("profiler"));
  // The watchdog member is the report's watchdog section, every field
  // present whether or not the monitor ever started.
  const testjson::Value& watchdog = health_doc.at("watchdog");
  for (const char* key :
       {"enabled", "running", "armed", "fired", "status", "overruns"}) {
    EXPECT_TRUE(watchdog.has(key)) << key;
  }

  stop_liveops_http();
  EXPECT_FALSE(liveops_http_running());
}

// The asan mid-cycle exit gate: everything the liveops plane starts —
// endpoint, watchdog — must come down cleanly and in order through the
// one telemetry::shutdown() call the engines' fault path makes, leaving
// no running threads and no leaked server, and the subsystems must be
// restartable afterwards (the next in-process run re-arms them).
TEST(Shutdown, StopsEveryLiveopsSubsystemInOrderAndIsRestartable) {
  ASSERT_NE(start_liveops_http(0), 0);
  start_watchdog(1.0);
  const std::uint64_t token = watchdog_arm("shutdown_test", 30.0, 0);
  EXPECT_NE(token, 0u);
  ASSERT_TRUE(liveops_http_running());
  ASSERT_TRUE(watchdog_running());

  telemetry::shutdown();
  EXPECT_FALSE(liveops_http_running());
  EXPECT_FALSE(watchdog_running());

  // shutdown() is idempotent (every stop is a no-op on a stopped
  // subsystem)...
  telemetry::shutdown();

  // ...and a new run can re-arm every subsystem.
  ASSERT_NE(start_liveops_http(0), 0);
  start_watchdog(2.0);
  EXPECT_TRUE(liveops_http_running());
  EXPECT_TRUE(watchdog_running());
  telemetry::shutdown();
  EXPECT_FALSE(liveops_http_running());
  EXPECT_FALSE(watchdog_running());
}

}  // namespace
}  // namespace senkf::telemetry::liveops
