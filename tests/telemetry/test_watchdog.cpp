// Stall watchdog (DESIGN.md §16): env parsing, arm/disarm bookkeeping,
// the injected-straggler acceptance (a phase that blows through its
// deadline fires senkf.watchdog.* within one deadline), the scaled
// deadlines, and the JSON object the report and /health write.
#include "telemetry/liveops/watchdog.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "telemetry/json_writer.hpp"
#include "telemetry/metrics.hpp"
#include "test_json.hpp"

namespace senkf::telemetry::liveops {
namespace {

testjson::Value watchdog_json(const WatchdogStats& stats) {
  std::ostringstream out;
  JsonWriter json(out);
  write_watchdog(json, stats);
  return testjson::parse(out.str());
}

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stop_watchdog();
    clear_watchdog();
  }
  void TearDown() override {
    stop_watchdog();
    clear_watchdog();
  }
};

TEST_F(WatchdogTest, EnvParsesOnOffAndScale) {
  EXPECT_FALSE(parse_watchdog_env(nullptr).enabled);
  EXPECT_FALSE(parse_watchdog_env("").enabled);
  EXPECT_FALSE(parse_watchdog_env("off").enabled);
  EXPECT_FALSE(parse_watchdog_env("0").enabled);
  EXPECT_FALSE(parse_watchdog_env("garbage").enabled);
  EXPECT_FALSE(parse_watchdog_env("-2").enabled);

  const WatchdogEnvConfig on = parse_watchdog_env("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_DOUBLE_EQ(on.scale, 3.0);

  const WatchdogEnvConfig scaled = parse_watchdog_env("1.5");
  EXPECT_TRUE(scaled.enabled);
  EXPECT_DOUBLE_EQ(scaled.scale, 1.5);
}

TEST_F(WatchdogTest, ArmIsNoOpWhenStopped) {
  EXPECT_FALSE(watchdog_running());
  EXPECT_EQ(watchdog_arm("phase", 1.0, 0), 0u);
  EXPECT_EQ(watchdog_stats().armed, 0u);
}

TEST_F(WatchdogTest, DisarmBeforeDeadlineNeverFires) {
  start_watchdog(1.0);
  const std::uint64_t token = watchdog_arm("quick_phase", 0.05, 2);
  ASSERT_NE(token, 0u);
  watchdog_disarm(token);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const WatchdogStats stats = watchdog_stats();
  EXPECT_EQ(stats.fired, 0u);
  EXPECT_EQ(stats.armed, 1u);
  EXPECT_TRUE(stats.overruns.empty());
}

// The acceptance gate: an injected straggler — a phase holding its arm
// far past the deadline — must fire within one (scaled) phase deadline.
TEST_F(WatchdogTest, InjectedStragglerFiresWithinOneDeadline) {
  start_watchdog(1.0);  // scale 1: the deadline is the deadline
  auto& registry = Registry::global();
  const std::uint64_t fired0 =
      registry.counter_value("senkf.watchdog.fired");

  const std::uint64_t token = watchdog_arm("stalled_read", 0.05, 7);
  ASSERT_NE(token, 0u);
  // Poll for the fire; give it one extra deadline of slack for a slow
  // CI box, far less than the straggler's own stall would take.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(1000);
  while (watchdog_stats().fired == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const WatchdogStats stats = watchdog_stats();
  ASSERT_EQ(stats.fired, 1u);
  EXPECT_EQ(registry.counter_value("senkf.watchdog.fired"), fired0 + 1);
  ASSERT_EQ(stats.overruns.size(), 1u);
  EXPECT_EQ(stats.overruns[0].phase, "stalled_read");
  EXPECT_EQ(stats.overruns[0].rank, 7);
  EXPECT_DOUBLE_EQ(stats.overruns[0].deadline_s, 0.05);
  EXPECT_GE(stats.overruns[0].overrun_s, 0.0);
  // The straggler's own late disarm is a cheap miss, not a crash.
  watchdog_disarm(token);
}

TEST_F(WatchdogTest, ScaleMultipliesTheArmedDeadline) {
  start_watchdog(10.0);
  // 30ms deadline scaled by 10 = 300ms; at 100ms it must NOT have fired.
  const std::uint64_t token = watchdog_arm("scaled_phase", 0.03, 0);
  ASSERT_NE(token, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(watchdog_stats().fired, 0u);
  watchdog_disarm(token);
}

TEST_F(WatchdogTest, ScopeArmsAndDisarmsRaii) {
  start_watchdog(1.0);
  {
    const WatchdogScope scope("raii_phase", 30.0, 1);
    EXPECT_EQ(watchdog_stats().armed, 1u);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(watchdog_stats().fired, 0u);
  // Zero deadline: the scope is a no-op (infeasible cost model).
  {
    const WatchdogScope scope("no_deadline", 0.0, 1);
    EXPECT_EQ(watchdog_stats().armed, 1u);
  }
}

TEST_F(WatchdogTest, JsonReportsStalledStatus) {
  start_watchdog(1.0);
  watchdog_arm("json_phase", 0.02, 4);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(1000);
  while (watchdog_stats().fired == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const testjson::Value doc = watchdog_json(watchdog_stats());
  EXPECT_TRUE(doc.at("enabled").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("scale").as_number(), 1.0);
  EXPECT_GE(doc.at("armed").as_number(), 1.0);
  EXPECT_EQ(doc.at("fired").as_number(), 1.0);
  EXPECT_EQ(doc.at("status").as_string(), "stalled");
  ASSERT_EQ(doc.at("overruns").as_array().size(), 1u);
  EXPECT_EQ(doc.at("overruns").as_array()[0].at("phase").as_string(),
            "json_phase");
}

TEST(WatchdogJson, NeverStartedMonitorWritesEveryField) {
  const testjson::Value doc = watchdog_json(WatchdogStats{});
  EXPECT_FALSE(doc.at("enabled").as_bool());
  EXPECT_FALSE(doc.at("running").as_bool());
  EXPECT_EQ(doc.at("armed").as_number(), 0.0);
  EXPECT_EQ(doc.at("fired").as_number(), 0.0);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_TRUE(doc.at("overruns").as_array().empty());
  EXPECT_TRUE(doc.has("scale"));
}

TEST_F(WatchdogTest, ClearResetsTheLedger) {
  start_watchdog(1.0);
  watchdog_arm("cleared_phase", 0.01, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GE(watchdog_stats().fired, 1u);
  clear_watchdog();
  const WatchdogStats stats = watchdog_stats();
  EXPECT_EQ(stats.fired, 0u);
  EXPECT_EQ(stats.armed, 0u);
  EXPECT_TRUE(stats.overruns.empty());
}

}  // namespace
}  // namespace senkf::telemetry::liveops
