// Tests of the deterministic ensemble-transform analysis (the L-EnKF
// family's formulation, AnalysisKind::kDeterministicTransform).
#include <gtest/gtest.h>

#include <cmath>

#include "enkf/diagnostics.hpp"
#include "linalg/covariance.hpp"
#include "enkf/lenkf.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "linalg/ops.hpp"
#include "linalg/solve.hpp"
#include "obs/perturbed.hpp"
#include "owning_analysis.hpp"

namespace senkf::enkf {
namespace {

struct World {
  grid::LatLonGrid g{20, 12};
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;
  linalg::Matrix ys;

  explicit World(std::uint64_t seed, Index members = 8, Index stations = 50)
      : scenario(make_scenario(g, members, seed)),
        observations(make_obs(g, scenario.truth, seed, stations)),
        ys(obs::perturbed_observations(observations, members,
                                       senkf::Rng(seed + 5))) {}

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

  std::vector<grid::Patch> patches(grid::Rect rect) const {
    std::vector<grid::Patch> out;
    for (const auto& member : scenario.members) {
      out.push_back(member.extract(rect));
    }
    return out;
  }
};

AnalysisOptions transform_options() {
  AnalysisOptions opt;
  opt.kind = AnalysisKind::kDeterministicTransform;
  opt.halo = grid::Halo{2, 1};
  return opt;
}

TEST(Deterministic, ReducesErrorAgainstTruth) {
  const World w(1);
  const grid::Rect whole = w.g.bounds();
  const auto result = owning_analysis(w.patches(whole), whole, w.observations,
                                      w.ys, transform_options());
  double before = 0.0, after = 0.0;
  const grid::Patch truth = w.scenario.truth.extract(whole);
  for (Index k = 0; k < result.members.size(); ++k) {
    const grid::Patch bg = w.scenario.members[k].extract(whole);
    for (Index i = 0; i < truth.size(); ++i) {
      before += std::pow(bg.values()[i] - truth.values()[i], 2);
      after += std::pow(result.members[k].values()[i] - truth.values()[i], 2);
    }
  }
  EXPECT_LT(after, 0.6 * before);
}

TEST(Deterministic, MeanMatchesEnsembleSpaceBlue) {
  // Independent check of the mean update: solve the ensemble-space normal
  // equations with LU and rebuild x̄ᵃ = x̄ + U w̄ by hand.
  const World w(2, 6, 30);
  const grid::Rect rect = w.g.bounds();
  const auto result = owning_analysis(w.patches(rect), rect, w.observations,
                                      w.ys, transform_options());

  const Index n = rect.count(), members = 6;
  linalg::Matrix xb(n, members);
  for (Index k = 0; k < members; ++k) {
    const auto p = w.scenario.members[k].extract(rect);
    for (Index i = 0; i < n; ++i) xb(i, k) = p.values()[i];
  }
  const linalg::Vector mean = linalg::ensemble_mean(xb);
  linalg::Matrix u = xb;
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < members; ++k) u(i, k) -= mean[i];
  }
  const obs::LocalObservations local(w.observations, rect);
  const linalg::Matrix y_tilde = linalg::multiply(local.h(), u);
  linalg::Matrix rinv_y = y_tilde;
  for (Index r = 0; r < local.size(); ++r) {
    auto row_values = rinv_y.row(r);
    for (double& v : row_values) v /= local.r_diagonal()[r];
  }
  linalg::Matrix system = linalg::multiply_at_b(y_tilde, rinv_y);
  for (Index k = 0; k < members; ++k) {
    system(k, k) += static_cast<double>(members - 1);
  }
  const linalg::Vector hx = linalg::multiply(local.h(), mean);
  linalg::Vector innovation(local.size());
  for (Index r = 0; r < local.size(); ++r) {
    innovation[r] = w.observations.values()[local.selected()[r]] - hx[r];
  }
  const linalg::Vector w_mean = linalg::LuFactor(system).solve(
      linalg::multiply_at(rinv_y, innovation));
  const linalg::Vector increment = linalg::multiply(u, w_mean);

  // Ensemble mean of the transform result.
  for (Index i = 0; i < n; ++i) {
    double analysed_mean = 0.0;
    for (Index k = 0; k < members; ++k) {
      analysed_mean += result.members[k].values()[i];
    }
    analysed_mean /= static_cast<double>(members);
    EXPECT_NEAR(analysed_mean, mean[i] + increment[i], 1e-8);
  }
}

TEST(Deterministic, ShrinksSpreadWithoutPerturbedNoise) {
  const World w(3);
  const grid::Rect whole = w.g.bounds();
  const auto result = owning_analysis(w.patches(whole), whole, w.observations,
                                      w.ys, transform_options());
  // Rebuild fields to reuse the spread diagnostic.
  std::vector<grid::Field> analysis;
  for (const auto& patch : result.members) {
    grid::Field f(w.g);
    f.insert(patch);
    analysis.push_back(std::move(f));
  }
  EXPECT_LT(ensemble_spread(analysis), ensemble_spread(w.scenario.members));
}

TEST(Deterministic, IgnoresPerturbedObservations) {
  // The transform must not read Ys: different perturbations, same result.
  const World w(4);
  const grid::Rect whole = w.g.bounds();
  const auto a = owning_analysis(w.patches(whole), whole, w.observations,
                                 w.ys, transform_options());
  const auto other_ys =
      obs::perturbed_observations(w.observations, 8, senkf::Rng(999));
  const auto b = owning_analysis(w.patches(whole), whole, w.observations,
                                 other_ys, transform_options());
  for (Index k = 0; k < a.members.size(); ++k) {
    EXPECT_EQ(a.members[k].values(), b.members[k].values());
  }
}

TEST(Deterministic, AllImplementationsAgreeBitForBit) {
  // The scheme rides through serial / L- / P- / S-EnKF unchanged.
  const World w(5);
  const MemoryEnsembleStore store(w.g, w.scenario.members);
  EnkfRunConfig run;
  run.n_sdx = 4;
  run.n_sdy = 2;
  run.layers = 2;
  run.analysis = transform_options();
  SenkfConfig senkf_run;
  senkf_run.n_sdx = 4;
  senkf_run.n_sdy = 2;
  senkf_run.layers = 2;
  senkf_run.n_cg = 2;
  senkf_run.analysis = transform_options();

  const auto gold = serial_enkf(store, w.observations, w.ys, run);
  const auto via_lenkf = lenkf(store, w.observations, w.ys, run);
  const auto via_penkf = penkf(store, w.observations, w.ys, run);
  const auto via_senkf = senkf(store, w.observations, w.ys, senkf_run);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, via_lenkf), 0.0);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, via_penkf), 0.0);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, via_senkf), 0.0);
}

TEST(Deterministic, SkipsRegionsWithoutObservations) {
  const World w(6, 8, 1);
  grid::Rect rect{{0, 4}, {0, 4}};
  if (w.observations.components()[0].supported_by(rect)) {
    rect = grid::Rect{{10, 16}, {6, 10}};
  }
  ASSERT_FALSE(w.observations.components()[0].supported_by(rect));
  const auto result = owning_analysis(w.patches(rect), rect, w.observations,
                                      w.ys, transform_options());
  for (Index k = 0; k < result.members.size(); ++k) {
    const grid::Patch bg = w.scenario.members[k].extract(rect);
    EXPECT_EQ(result.members[k].values(), bg.values());
  }
}

}  // namespace
}  // namespace senkf::enkf
