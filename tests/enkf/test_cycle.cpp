#include "enkf/cycle.hpp"

#include <gtest/gtest.h>

#include "enkf/diagnostics.hpp"
#include "grid/synthetic.hpp"

namespace senkf::enkf {
namespace {

struct CycleWorld {
  grid::LatLonGrid mesh{48, 24};
  grid::SyntheticEnsemble scenario;
  model::AdvectionDiffusion dynamics;

  explicit CycleWorld(std::uint64_t seed)
      : scenario(make(mesh, seed)),
        dynamics(mesh, model::AdvectionDiffusionConfig{0.8, 0.1, 0.02}) {}

  static grid::SyntheticEnsemble make(const grid::LatLonGrid& mesh,
                                      std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(mesh, 8, rng, 0.5);
  }

  CycleConfig config(Index cycles = 6) const {
    CycleConfig c;
    c.cycles = cycles;
    c.steps_per_cycle = 3;
    c.seed = 77;
    c.network.station_count = 200;
    c.network.error_std = 0.05;
    c.assimilation.n_sdx = 4;
    c.assimilation.n_sdy = 2;
    c.assimilation.layers = 2;
    c.assimilation.n_cg = 2;
    c.assimilation.analysis.halo = grid::Halo{3, 2};
    c.assimilation.analysis.inflation = 1.05;
    return c;
  }
};

TEST(Cycle, AnalysisBeatsFreeRunEveryCycle) {
  const CycleWorld w(1);
  const auto result = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, w.config());
  ASSERT_EQ(result.records.size(), 6u);
  for (const auto& record : result.records) {
    EXPECT_LT(record.analysis_rmse, record.free_rmse);
  }
  // Before the filter converges the analysis clearly improves on the
  // background (at the observation-error floor later cycles may tie).
  EXPECT_LT(result.records.front().analysis_rmse,
            result.records.front().background_rmse);
}

TEST(Cycle, AssimilationKeepsErrorBounded) {
  const CycleWorld w(2);
  const auto result = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, w.config(8));
  // The analysis error in the last cycles must not exceed the first
  // analysis error by much (no filter divergence).
  const double first = result.records.front().analysis_rmse;
  const double last = result.records.back().analysis_rmse;
  EXPECT_LT(last, 2.0 * first);
}

TEST(Cycle, InflationMaintainsSpread) {
  const CycleWorld w(3);
  CycleConfig no_inflation = w.config(8);
  no_inflation.assimilation.analysis.inflation = 1.0;
  CycleConfig inflated = w.config(8);
  inflated.assimilation.analysis.inflation = 1.10;

  const auto flat = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, no_inflation);
  const auto boosted = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, inflated);
  EXPECT_GT(boosted.records.back().spread, flat.records.back().spread);
}

TEST(Cycle, DeterministicGivenSeed) {
  const CycleWorld w(4);
  const auto a = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, w.config(3));
  const auto b = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, w.config(3));
  EXPECT_DOUBLE_EQ(
      max_ensemble_difference(a.final_analysis, b.final_analysis), 0.0);
  for (std::size_t t = 0; t < a.records.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.records[t].analysis_rmse, b.records[t].analysis_rmse);
  }
}

/// Means over the cycles after a 5-cycle spin-up.
struct Consistency {
  double chi2 = 0.0;          ///< innovation χ²/m
  double spread_skill = 0.0;  ///< analysis spread / analysis RMSE
};

Consistency after_spin_up(const CycleResult& result) {
  constexpr std::size_t kSpinUp = 5;
  Consistency mean;
  for (std::size_t t = kSpinUp; t < result.records.size(); ++t) {
    mean.chi2 += result.records[t].innovation_chi2;
    mean.spread_skill +=
        result.records[t].spread / result.records[t].analysis_rmse;
  }
  const double cycles = static_cast<double>(result.records.size() - kSpinUp);
  mean.chi2 /= cycles;
  mean.spread_skill /= cycles;
  return mean;
}

TEST(Cycle, FilterStaysStatisticallyConsistent) {
  // A filter whose analysis is wrong in the same way on every engine
  // passes the bitwise agreement gates; its statistics do not.  Over 20
  // cycles with static inflation 1.05, after 5 spin-up cycles:
  //  * mean χ²/m ∈ [0.8, 1.25].  For m = 200 independent innovations
  //    one cycle's χ²/m has standard deviation √(2/m) = 0.1; over worlds
  //    11–22 the per-cycle values ranged 0.84–1.20 and the means
  //    0.997–1.021, so the band holds even if every cycle sat at the
  //    edge of that range.
  //  * mean spread/RMSE ∈ [0.6, 1.6].  The same worlds gave 0.82–1.35
  //    (N = 8 under-samples the spread); the band widens that by ~0.2.
  // Negative control: the same world with its initial ensemble collapsed
  // to 1e-3 of its spread and no inflation cannot fit the observations —
  // it gave χ²/m of 2.4–28 on worlds 11–22 — and must leave the χ² band.
  const CycleWorld w(18);
  const CycleConfig config = w.config(20);
  const auto healthy_run = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, config);
  const Consistency healthy = after_spin_up(healthy_run);
  EXPECT_GT(healthy.chi2, 0.8);
  EXPECT_LT(healthy.chi2, 1.25);
  EXPECT_GT(healthy.spread_skill, 0.6);
  EXPECT_LT(healthy.spread_skill, 1.6);

  std::vector<grid::Field> collapsed = w.scenario.members;
  const auto n_members = static_cast<double>(collapsed.size());
  for (Index i = 0; i < w.mesh.size(); ++i) {
    double mean = 0.0;
    for (const auto& member : collapsed) mean += member[i] / n_members;
    for (auto& member : collapsed) {
      member[i] = mean + 1e-3 * (member[i] - mean);
    }
  }
  CycleConfig uninflated = config;
  uninflated.assimilation.analysis.inflation = 1.0;
  const auto control_run = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, collapsed, uninflated);
  EXPECT_GT(after_spin_up(control_run).chi2, 1.25);
}

TEST(Cycle, Validation) {
  const CycleWorld w(5);
  CycleConfig bad = w.config();
  bad.cycles = 0;
  EXPECT_THROW(run_cycled_assimilation(w.dynamics, w.scenario.truth,
                                       w.scenario.members, bad),
               senkf::InvalidArgument);
  EXPECT_THROW(
      run_cycled_assimilation(w.dynamics, w.scenario.truth,
                              {w.scenario.members[0]}, w.config()),
      senkf::InvalidArgument);
}

TEST(Cycle, AdaptiveInflationTracksConsistency) {
  const CycleWorld w(8);
  CycleConfig adaptive = w.config(10);
  adaptive.assimilation.analysis.inflation = 1.0;
  adaptive.adaptive_inflation = true;
  adaptive.inflation_min = 1.0;
  adaptive.inflation_max = 1.4;
  const auto result = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, adaptive);
  for (const auto& record : result.records) {
    EXPECT_GE(record.inflation_used, 1.0);
    EXPECT_LE(record.inflation_used, 1.4);
    EXPECT_LT(record.analysis_rmse, record.free_rmse);
  }
  // After spin-up the innovation consistency should hover near 1.
  const auto& last = result.records.back();
  EXPECT_GT(last.innovation_chi2, 0.3);
  EXPECT_LT(last.innovation_chi2, 3.5);
}

TEST(Cycle, AdaptiveInflationBeatsNoInflationOnSpread) {
  const CycleWorld w(9);
  CycleConfig fixed = w.config(10);
  fixed.assimilation.analysis.inflation = 1.0;
  CycleConfig adaptive = fixed;
  adaptive.adaptive_inflation = true;
  adaptive.inflation_max = 1.3;
  const auto flat = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, fixed);
  const auto tuned = run_cycled_assimilation(
      w.dynamics, w.scenario.truth, w.scenario.members, adaptive);
  EXPECT_GE(tuned.records.back().spread, flat.records.back().spread);
}

TEST(Cycle, AdaptiveInflationValidation) {
  const CycleWorld w(10);
  CycleConfig bad = w.config();
  bad.adaptive_inflation = true;
  bad.inflation_min = 1.2;
  bad.inflation_max = 1.1;  // max < min
  EXPECT_THROW(run_cycled_assimilation(w.dynamics, w.scenario.truth,
                                       w.scenario.members, bad),
               senkf::InvalidArgument);
}

TEST(Inflation, IncreasesAnalysisSpreadMonotonically) {
  // Single-shot analysis: more inflation → more posterior spread.
  const CycleWorld w(6);
  const MemoryEnsembleStore store(w.mesh, w.scenario.members);
  senkf::Rng obs_rng(9);
  obs::NetworkOptions net;
  net.station_count = 200;
  net.error_std = 0.05;
  const auto observations =
      obs::random_network(w.mesh, w.scenario.truth, obs_rng, net);
  const auto ys =
      obs::perturbed_observations(observations, 8, senkf::Rng(10));

  double previous = -1.0;
  for (const double inflation : {1.0, 1.05, 1.2}) {
    SenkfConfig config = w.config().assimilation;
    config.analysis.inflation = inflation;
    const auto analysis = senkf(store, observations, ys, config);
    const double spread = ensemble_spread(analysis);
    if (previous >= 0.0) {
      EXPECT_GT(spread, previous);
    }
    previous = spread;
  }
}

TEST(Inflation, BelowOneRejected) {
  const CycleWorld w(7);
  const MemoryEnsembleStore store(w.mesh, w.scenario.members);
  senkf::Rng obs_rng(11);
  obs::NetworkOptions net;
  net.station_count = 50;
  const auto observations =
      obs::random_network(w.mesh, w.scenario.truth, obs_rng, net);
  const auto ys = obs::perturbed_observations(observations, 8,
                                              senkf::Rng(12));
  SenkfConfig config = w.config().assimilation;
  config.analysis.inflation = 0.9;
  EXPECT_THROW(senkf(store, observations, ys, config),
               senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::enkf
