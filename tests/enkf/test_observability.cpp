// Cross-rank observability acceptance gate (DESIGN.md §11).
//
//  * SenkfStats derives from the run's own ledger: the phase totals
//    equal the sum of the per-rank samples, and back-to-back runs (even
//    across a Registry::reset) never inherit totals;
//  * the registry's senkf.* counters advance by exactly the ledger's
//    totals, on the fault path too;
//  * a run sends only data-plane messages: the block batches (results
//    are written into the output fields, not sent);
//  * the SENKF_REPORT writer emits schema-valid JSON whose run section
//    matches the stats facade;
//  * model.drift.* gauges are populated after every run and hold the
//    report's drift, and the senkf.skew.* gauges its skew ratios;
//  * an injected straggler delay raises one senkf.straggler.* WARN per
//    stage from the run-end straggler check;
//  * the aggregation survives an injected-faulty PFS (SENKF_FAULTS).
//
// Causal-tracing acceptance (DESIGN.md §13): an injected straggler rank
// dominates the per-cycle critical path and the attribution sums to the
// measured wall clock; a straggler's bar reads leave no dangling flow ids;
// flush-on-fault still emits the partial report and critical path.
//
// Live operations (DESIGN.md §16): L-, P- and S-EnKF each arm the
// SENKF_HTTP endpoint on entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "enkf/faulty_store.hpp"
#include "enkf/lenkf.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/liveops/liveops.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "../telemetry/test_json.hpp"

namespace senkf::enkf {
namespace {

struct World {
  grid::LatLonGrid g{24, 12};
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;
  linalg::Matrix ys;
  MemoryEnsembleStore store;

  explicit World(std::uint64_t seed, Index members = 6, Index stations = 50)
      : scenario(make_scenario(g, members, seed)),
        observations(make_obs(g, scenario.truth, seed, stations)),
        ys(obs::perturbed_observations(observations, members,
                                       senkf::Rng(seed + 5))),
        store(g, scenario.members) {}

  static grid::SyntheticEnsemble make_scenario(const grid::LatLonGrid& g,
                                               Index members,
                                               std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(g, members, rng, 0.5);
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& g,
                                      const grid::Field& truth,
                                      std::uint64_t seed, Index stations) {
    senkf::Rng rng(seed + 1);
    obs::NetworkOptions opt;
    opt.station_count = stations;
    opt.error_std = 0.05;
    return obs::random_network(g, truth, rng, opt);
  }
};

SenkfConfig senkf_config(Index layers = 3, Index n_cg = 2) {
  SenkfConfig c;
  c.n_sdx = 4;
  c.n_sdy = 2;
  c.layers = layers;
  c.n_cg = n_cg;
  c.analysis.halo = grid::Halo{2, 1};
  return c;
}

double sum_over_ranks(const std::vector<telemetry::RankSample>& ranks,
                      double telemetry::RankSample::* field) {
  return std::accumulate(ranks.begin(), ranks.end(), 0.0,
                         [field](double acc, const telemetry::RankSample& r) {
                           return acc + r.*field;
                         });
}

TEST(Observability, AggregatedTotalsEqualSumOfPerRankSamples) {
  const World w(41);
  const SenkfConfig config = senkf_config();
  SenkfStats stats;
  const auto result = senkf(w.store, w.observations, w.ys, config, &stats);
  ASSERT_EQ(result.size(), 6u);

  // Every rank contributed exactly one sample, sorted by rank id.
  ASSERT_EQ(stats.ranks.size(), config.total_ranks());
  for (std::size_t i = 0; i < stats.ranks.size(); ++i) {
    EXPECT_EQ(stats.ranks[i].rank, static_cast<std::int32_t>(i));
    const bool is_io = i >= config.computation_ranks();
    EXPECT_EQ(stats.ranks[i].is_io != 0, is_io) << "rank " << i;
    if (is_io) {
      EXPECT_GE(stats.ranks[i].group, 0);
    }
  }

  // The facade's totals are the per-rank sums — the ledger's totals and
  // the per-rank samples are two views of one number.
  EXPECT_NEAR(sum_over_ranks(stats.ranks, &telemetry::RankSample::read_s),
              stats.io_read_seconds, 1e-9);
  EXPECT_NEAR(sum_over_ranks(stats.ranks, &telemetry::RankSample::send_s),
              stats.io_send_seconds, 1e-9);
  EXPECT_NEAR(sum_over_ranks(stats.ranks, &telemetry::RankSample::wait_s),
              stats.comp_wait_seconds, 1e-9);
  EXPECT_NEAR(sum_over_ranks(stats.ranks, &telemetry::RankSample::update_s),
              stats.comp_update_seconds, 1e-9);
  std::uint64_t messages = 0;
  for (const auto& r : stats.ranks) messages += r.messages;
  EXPECT_EQ(messages, stats.messages);
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.io_read_seconds, 0.0);
  EXPECT_GT(stats.comp_update_seconds, 0.0);
  EXPECT_GE(stats.read_skew, 1.0);  // balanced in-memory reads, no faults
  EXPECT_EQ(stats.straggler_warns, 0u);

  // Each I/O rank contributed one per-stage acquisition observation to
  // the run's one metric row.
  const telemetry::RunReport report = telemetry::run_report_copy();
  ASSERT_TRUE(report.valid);
  EXPECT_EQ(report.kind, "senkf");
  ASSERT_EQ(report.aggregate.size(), 1u);
  const telemetry::MetricRow& hist = report.aggregate.front();
  EXPECT_EQ(hist.name, "senkf.rank.stage_obtain_us");
  EXPECT_EQ(hist.kind, telemetry::MetricRow::Kind::kHistogram);
  EXPECT_EQ(hist.count,
            static_cast<std::uint64_t>(config.io_ranks() * config.layers));
}

TEST(Observability, RunReportJsonMatchesTheAggregate) {
  const World w(42);
  SenkfStats stats;
  (void)senkf(w.store, w.observations, w.ys, senkf_config(), &stats);

  std::ostringstream out;
  telemetry::write_run_report(out);
  const testjson::Value doc = testjson::parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), "senkf-run-report");
  EXPECT_DOUBLE_EQ(doc.at("version").as_number(),
                   telemetry::RunReport::kVersion);
  const testjson::Value& run = doc.at("run");
  EXPECT_EQ(run.at("kind").as_string(), "senkf");
  EXPECT_TRUE(run.at("valid").as_bool());
  EXPECT_EQ(run.at("config").at("layers").as_string(), "3");
  // Schema v5: a run report describes one run and has no job section.
  EXPECT_FALSE(run.has("jobs"));
  EXPECT_FALSE(run.has("tenants"));
  EXPECT_FALSE(run.has("job_totals"));

  // Acceptance invariant, asserted on the exported JSON itself: the
  // aggregated phase totals equal the sum over the per-rank samples.
  const auto& ranks = run.at("ranks").as_array();
  ASSERT_EQ(ranks.size(), senkf_config().total_ranks());
  double read_sum = 0.0;
  double update_sum = 0.0;
  for (const auto& r : ranks) {
    read_sum += r.at("read_s").as_number();
    update_sum += r.at("update_s").as_number();
  }
  EXPECT_NEAR(read_sum, run.at("phases").at("io_read_s").as_number(), 1e-9);
  EXPECT_NEAR(update_sum, run.at("phases").at("comp_update_s").as_number(),
              1e-9);
  EXPECT_NEAR(run.at("phases").at("io_read_s").as_number(),
              stats.io_read_seconds, 1e-12);

  // The run's per-stage acquisition histogram, with its quantiles: one
  // observation per I/O rank per stage.
  const testjson::Value& stage_obtain =
      run.at("aggregate").at("histograms").at("senkf.rank.stage_obtain_us");
  EXPECT_DOUBLE_EQ(stage_obtain.at("count").as_number(),
                   static_cast<double>(senkf_config().io_ranks() *
                                       senkf_config().layers));
  EXPECT_LE(stage_obtain.at("p50").as_number(),
            stage_obtain.at("p99").as_number());

  // The drift section and the drift gauges are one number each.
  const testjson::Value& metrics = doc.at("metrics");
  for (const char* phase : {"read", "comm", "comp"}) {
    EXPECT_EQ(run.at("drift").at(phase).as_number(),
              metrics.at("gauges")
                  .at(std::string("model.drift.") + phase)
                  .as_number())
        << phase;
  }
  EXPECT_TRUE(metrics.at("counters").has("senkf.io_read_ns"));
}

TEST(Observability, SenkfSendsOnlyDataPlaneMessages) {
  const World w(48);
  const SenkfConfig config = senkf_config();
  (void)senkf(w.store, w.observations, w.ys, config);  // warm-up run

  auto& registry = telemetry::Registry::global();
  const std::uint64_t before = registry.counter_value("parcomm.messages");
  (void)senkf(w.store, w.observations, w.ys, config);
  const std::uint64_t sent =
      registry.counter_value("parcomm.messages") - before;

  // Every I/O rank sends one block batch per stage to each computation
  // rank of its row, and nothing else: 4·3·4 = 48 on this layout.  The
  // computation ranks write their results into the output fields, and
  // telemetry adds nothing.
  EXPECT_EQ(sent, config.io_ranks() * config.layers * config.n_sdx);
}

TEST(Observability, ModelDriftGaugesArePopulated) {
  const World w(43);
  (void)senkf(w.store, w.observations, w.ys, senkf_config());

  // The uncalibrated model cannot match an in-memory run: every phase
  // drifts, and the gauges publish the report's relative error.
  auto& registry = telemetry::Registry::global();
  const telemetry::RunReport report = telemetry::run_report_copy();
  for (const char* phase : {"read", "comm", "comp"}) {
    EXPECT_NE(report.drift.at(phase), 0.0) << phase;
    EXPECT_EQ(registry.gauge_value(std::string("model.drift.") + phase),
              report.drift.at(phase))
        << phase;
  }
}

TEST(Observability, InjectedStragglerRaisesWarns) {
  const World w(44);
  // I/O rank ordinal 0 pays 20 ms per bar read; its per-stage
  // acquisition dwarfs the in-memory peers, so every stage trips the
  // 2x-of-mean threshold.
  const FaultyEnsembleStore faulty(
      w.store, pfs::parse_fault_plan("straggler=0:0.02"));
  const SenkfConfig config = senkf_config(2, 2);
  const std::uint64_t warns_before =
      telemetry::Registry::global().counter_value("senkf.straggler.warns");
  SenkfStats stats;
  (void)senkf(faulty, w.observations, w.ys, config, &stats);

  EXPECT_EQ(stats.straggler_warns, static_cast<std::uint64_t>(config.layers));
  EXPECT_EQ(
      telemetry::Registry::global().gauge_value("senkf.straggler.last_rank"),
      static_cast<double>(config.computation_ranks()));
  EXPECT_GT(stats.read_skew, 2.0);
  EXPECT_GT(telemetry::Registry::global().counter_value(
                "senkf.straggler.warns"),
            warns_before);
  const telemetry::RunReport report = telemetry::run_report_copy();
  EXPECT_GE(report.straggler_warns, 1u);
  EXPECT_GT(report.skew.at("stage.worst_ratio"), 2.0);
  // The gauge holds the worst per-stage ratio itself.
  EXPECT_EQ(telemetry::Registry::global().gauge_value("senkf.skew.stage_read"),
            report.skew.at("stage.worst_ratio"));
  // The straggler's concurrent group (group 0) is the slower one.
  EXPECT_GT(report.skew.at("group.worst_ratio"), 1.0);
}

TEST(Observability, BackToBackRunsDoNotInheritTotals) {
  const World w(46);
  const SenkfConfig config = senkf_config();
  SenkfStats first;
  (void)senkf(w.store, w.observations, w.ys, config, &first);
  SenkfStats second;
  (void)senkf(w.store, w.observations, w.ys, config, &second);

  // Identical workload: the second run's counts must match the first,
  // not accumulate process-cumulative totals (the old facade diffed
  // global counters and double-counted after any missed baseline).
  EXPECT_EQ(second.messages, first.messages);
  EXPECT_EQ(second.read_retries, 0u);
  EXPECT_GT(second.io_read_seconds, 0.0);
  EXPECT_LT(second.io_read_seconds, first.io_read_seconds * 50.0);

  // A registry reset between runs (a monitoring scrape rotating
  // counters) must not skew the per-run numbers either.
  telemetry::Registry::global().reset();
  SenkfStats third;
  (void)senkf(w.store, w.observations, w.ys, config, &third);
  EXPECT_EQ(third.messages, first.messages);
  EXPECT_EQ(third.ranks.size(), config.total_ranks());
  EXPECT_GT(third.io_read_seconds, 0.0);
}

// The registry's senkf.* counters are published from the run ledger once
// per call, so one call moves them by exactly the facade's totals.
TEST(Observability, RegistryCountersAdvanceByTheLedgerTotals) {
  const World w(53);
  auto& registry = telemetry::Registry::global();
  const char* const names[] = {"senkf.io_read_ns", "senkf.io_send_ns",
                               "senkf.comp_wait_ns", "senkf.comp_update_ns",
                               "senkf.messages"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(registry.counter_value(name));
  SenkfStats stats;
  (void)senkf(w.store, w.observations, w.ys, senkf_config(), &stats);

  const auto delta_s = [&](std::size_t i) {
    return static_cast<double>(registry.counter_value(names[i]) - before[i]) /
           1e9;
  };
  EXPECT_NEAR(delta_s(0), stats.io_read_seconds, 1e-9);
  EXPECT_NEAR(delta_s(1), stats.io_send_seconds, 1e-9);
  EXPECT_NEAR(delta_s(2), stats.comp_wait_seconds, 1e-9);
  EXPECT_NEAR(delta_s(3), stats.comp_update_seconds, 1e-9);
  EXPECT_EQ(registry.counter_value(names[4]) - before[4], stats.messages);
  EXPECT_GT(stats.io_read_seconds, 0.0);
}

TEST(Observability, AbortedRunStillPublishesItsLedger) {
  const World w(54);
  const FaultyEnsembleStore faulty(w.store, pfs::parse_fault_plan("dead=1"));
  SenkfConfig config = senkf_config();
  config.fault.drop_unreadable_members = false;  // make the run abort
  auto& registry = telemetry::Registry::global();
  const std::uint64_t read_before = registry.counter_value("senkf.io_read_ns");
  const std::uint64_t send_before = registry.counter_value("senkf.io_send_ns");

  EXPECT_THROW(senkf(faulty, w.observations, w.ys, config),
               pfs::PermanentReadError);

  // Group 0 reads and scatters members 0, 2 and 4 whatever group 1's dead
  // member does; the fault path publishes that prefix of the ledger.
  EXPECT_GT(registry.counter_value("senkf.io_read_ns"), read_before);
  EXPECT_GT(registry.counter_value("senkf.io_send_ns"), send_before);
}

TEST(Observability, AggregationSurvivesInjectedFaults) {
  const World w(47);
  ::setenv("SENKF_FAULTS", "seed=4,transient=0.3,burst=1", 1);
  const auto plan = pfs::fault_plan_from_env();
  ::unsetenv("SENKF_FAULTS");
  ASSERT_TRUE(plan.has_value());
  const FaultyEnsembleStore faulty(w.store, *plan);
  SenkfStats stats;
  const auto result =
      senkf(faulty, w.observations, w.ys, senkf_config(), &stats);
  ASSERT_EQ(result.size(), 6u);

  EXPECT_GT(stats.read_retries, 0u);
  std::uint64_t retries = 0;
  for (const auto& r : stats.ranks) retries += r.retries;
  EXPECT_EQ(retries, stats.read_retries);
  ASSERT_EQ(stats.ranks.size(), senkf_config().total_ranks());
}

TEST(Observability, SteadyStateAnalysisIsAllocationFree) {
  const World w(52);
  const SenkfConfig config = senkf_config();
  auto& registry = telemetry::Registry::global();

  // First run warms the workspace pool: every worker's arena grows to
  // the largest shape its analyses need, and the chunks survive the
  // run's ThreadPool teardown on the pool's free list.
  (void)senkf(w.store, w.observations, w.ys, config);
  const std::uint64_t events_before =
      registry.counter_value("analysis.alloc.events");
  const std::uint64_t patches_before =
      registry.counter_value("analysis.patches");

  // Steady state (DESIGN.md §15): the repeat run analyses the same
  // patches without a single arena growth — allocs-per-patch reads 0.
  (void)senkf(w.store, w.observations, w.ys, config);
  const std::uint64_t patches =
      registry.counter_value("analysis.patches") - patches_before;
  EXPECT_GT(patches, 0u);
  EXPECT_EQ(registry.counter_value("analysis.alloc.events"), events_before);

  // Same observation set, same rects: the localization cache served the
  // repeat lookups instead of rebuilding H / R⁻¹ / HᵀR⁻¹H.
  EXPECT_GT(registry.counter_value("analysis.localization.hits"), 0u);
  EXPECT_GT(registry.gauge_value("analysis.arena.high_water"), 0.0);

  // The run report carries the plane in its registry dump.
  std::ostringstream out;
  telemetry::write_run_report(out);
  const testjson::Value metrics = testjson::parse(out.str()).at("metrics");
  EXPECT_TRUE(metrics.at("counters").has("analysis.alloc.events"));
  EXPECT_TRUE(metrics.at("counters").has("analysis.patches"));
  EXPECT_TRUE(metrics.at("counters").has("analysis.localization.hits"));
  EXPECT_EQ(metrics.at("gauges").at("analysis.arena.high_water").as_number(),
            registry.gauge_value("analysis.arena.high_water"));
}

// Tracing state and the critical-path list are process-global; each tracing test arms them on entry and scrubs them on
// exit so the plain Observability suites above stay oblivious.
class ObservabilityTracing : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_tracing_enabled(true);
    telemetry::clear_events();
    telemetry::clear_critical_paths();
  }
  void TearDown() override {
    telemetry::set_tracing_enabled(false);
    telemetry::clear_events();
    telemetry::clear_critical_paths();
  }
};

TEST_F(ObservabilityTracing, StragglerDominatesReportedCriticalPath) {
  const World w(49);
  // I/O rank ordinal 0 pays 40 ms per bar read: every stage of the run is
  // serialized behind its acquisitions.
  const FaultyEnsembleStore faulty(
      w.store, pfs::parse_fault_plan("straggler=0:0.04"));
  const SenkfConfig config = senkf_config(2, 2);

  const std::int64_t t0 = telemetry::now_ns();
  (void)senkf(faulty, w.observations, w.ys, config);
  const double measured_s =
      static_cast<double>(telemetry::now_ns() - t0) / 1e9;

  const auto paths = telemetry::critical_paths_copy();
  ASSERT_EQ(paths.size(), 1u);  // one cycle, one attribution
  const telemetry::CriticalPathSummary& cp = paths.front();

  // Acceptance: the attribution partitions the cycle — the split sums to
  // the walked wall clock exactly, and that window covers the measured
  // run wall clock within 5%.
  EXPECT_NEAR(cp.attributed_s + cp.untracked_s, cp.wall_s, 1e-9);
  EXPECT_NEAR(cp.compute_s + cp.disk_s + cp.comm_blocked_s + cp.other_s +
                  cp.untracked_s,
              cp.wall_s, 1e-9);
  EXPECT_NEAR(cp.wall_s, measured_s, 0.05 * measured_s + 0.005);

  // Acceptance: the injected straggler — I/O rank ordinal 0, world rank
  // computation_ranks() — dominates the ranked contributor table with its
  // bar acquisitions, reached from cycle end through flow-edge hops.
  ASSERT_FALSE(cp.top.empty());
  EXPECT_EQ(cp.top[0].rank,
            static_cast<std::int32_t>(config.computation_ranks()));
  EXPECT_EQ(cp.top[0].phase, "bar_obtain");
  EXPECT_GT(cp.disk_s, 0.5 * cp.wall_s);
  EXPECT_GE(cp.message_hops, 1u);
  EXPECT_EQ(cp.missing_edges, 0u);
}

TEST_F(ObservabilityTracing, StragglerBarsLeaveNoDanglingFlowIds) {
  const World w(50);
  // A 50 ms straggler on I/O rank ordinal 0: row 0's stage waits are
  // released by its late batches.
  const FaultyEnsembleStore faulty(
      w.store, pfs::parse_fault_plan("straggler=0:0.05"));
  const SenkfConfig config = senkf_config(2, 2);

  (void)senkf(faulty, w.observations, w.ys, config);
  const auto events = telemetry::collect_events();

  // Every consumed flow id must resolve to a recorded origin — a
  // dangling id would render as an arrow from nowhere in the export.
  std::set<std::uint64_t> origins;
  for (const auto& e : events) {
    if (e.flow == telemetry::FlowDir::kOut) origins.insert(e.flow_id);
  }
  std::size_t consumed = 0;
  for (const auto& e : events) {
    if (e.flow != telemetry::FlowDir::kStep &&
        e.flow != telemetry::FlowDir::kIn) {
      continue;
    }
    ++consumed;
    EXPECT_EQ(origins.count(e.flow_id), 1u)
        << "dangling flow id " << e.flow_id;
  }
  EXPECT_GT(consumed, 0u);

  // The walker sees the same complete edge set and terminates cleanly.
  const telemetry::CriticalPathReport cp =
      telemetry::analyze_critical_path(events);
  ASSERT_TRUE(cp.valid);
  EXPECT_FALSE(cp.truncated);
  EXPECT_EQ(cp.missing_edges, 0u);
}

TEST_F(ObservabilityTracing, FlushOnFaultEmitsCriticalPath) {
  const World w(51);
  const FaultyEnsembleStore faulty(w.store, pfs::parse_fault_plan("dead=1"));
  SenkfConfig config = senkf_config();
  config.fault.drop_unreadable_members = false;  // make the run abort

  EXPECT_THROW(senkf(faulty, w.observations, w.ys, config),
               pfs::PermanentReadError);

  // Flush-on-fault must leave behind (a) a report marked partial and (b)
  // a critical path attributing the aborted window.
  EXPECT_TRUE(telemetry::run_report_copy().partial);
  const auto paths = telemetry::critical_paths_copy();
  ASSERT_FALSE(paths.empty());
  EXPECT_GT(paths.front().wall_s, 0.0);
  EXPECT_GT(paths.front().attributed_s + paths.front().untracked_s, 0.0);
}

// SENKF_HTTP is read once per process, so each engine gets a fresh one:
// a threadsafe death test re-executes the binary and runs only its own
// statement there.  The child arms an ephemeral port, makes one small
// call and exits 0 only if the endpoint is serving.
template <typename Call>
[[noreturn]] void exit_with_endpoint_state(const Call& call) {
  ::setenv("SENKF_HTTP", "0", 1);
  call();
  std::_Exit(telemetry::liveops::liveops_http_running() ? 0 : 1);
}

TEST(LiveopsArming, EveryEngineArmsTheEndpoint) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const World w(55);
  EnkfRunConfig config;
  config.n_sdx = 4;
  config.n_sdy = 2;
  config.layers = 3;
  config.analysis.halo = grid::Halo{2, 1};
  const auto run_lenkf = [&] {
    (void)lenkf(w.store, w.observations, w.ys, config);
  };
  const auto run_penkf = [&] {
    (void)penkf(w.store, w.observations, w.ys, config);
  };
  const auto run_senkf = [&] {
    (void)senkf(w.store, w.observations, w.ys, senkf_config());
  };
  const char* const serving = "serving on 127\\.0\\.0\\.1:";

  using ::testing::ExitedWithCode;
  EXPECT_EXIT(exit_with_endpoint_state(run_lenkf), ExitedWithCode(0), serving);
  EXPECT_EXIT(exit_with_endpoint_state(run_penkf), ExitedWithCode(0), serving);
  EXPECT_EXIT(exit_with_endpoint_state(run_senkf), ExitedWithCode(0), serving);
}

}  // namespace
}  // namespace senkf::enkf
