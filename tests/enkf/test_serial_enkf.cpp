#include "enkf/serial_enkf.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "enkf/diagnostics.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"
#include "owning_analysis.hpp"

namespace senkf::enkf {
namespace {

struct World {
  grid::LatLonGrid g{24, 12};
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;
  linalg::Matrix ys;
  MemoryEnsembleStore store;

  explicit World(std::uint64_t seed, Index members = 8, Index stations = 60)
      : scenario(make_scenario(g, members, seed)),
        observations(make_obs(g, scenario.truth, seed, stations)),
        ys(obs::perturbed_observations(observations, members,
                                       senkf::Rng(seed + 5))),
        store(g, copy_members(scenario)) {}

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
  static std::vector<grid::Field> copy_members(
      const grid::SyntheticEnsemble& s) {
    return s.members;
  }
};

EnkfRunConfig config_4x2(Index layers = 1) {
  EnkfRunConfig c;
  c.n_sdx = 4;
  c.n_sdy = 2;
  c.layers = layers;
  c.analysis.halo = grid::Halo{2, 1};
  return c;
}

TEST(SerialEnkf, ImprovesEnsembleMeanSkill) {
  const World w(1);
  const auto analysis = serial_enkf(w.store, w.observations, w.ys,
                                    config_4x2());
  const double before = mean_field_rmse(w.scenario.members, w.scenario.truth);
  const double after = mean_field_rmse(analysis, w.scenario.truth);
  EXPECT_LT(after, 0.7 * before);
}

TEST(SerialEnkf, ReducesEnsembleSpreadTowardObservations) {
  const World w(2);
  const auto analysis = serial_enkf(w.store, w.observations, w.ys,
                                    config_4x2());
  EXPECT_LT(ensemble_spread(analysis), ensemble_spread(w.scenario.members));
}

TEST(SerialEnkf, SingleSubdomainEqualsGlobalAnalysis) {
  // With n_sdx = n_sdy = L = 1 the "local" analysis is eq. (5) on the
  // whole grid — compare against the kernel called directly.
  const World w(3, 6, 30);
  EnkfRunConfig c;
  c.analysis.halo = grid::Halo{2, 1};
  const auto via_serial = serial_enkf(w.store, w.observations, w.ys, c);

  std::vector<grid::Patch> background;
  for (const auto& member : w.scenario.members) {
    background.push_back(member.extract(w.g.bounds()));
  }
  const auto direct = owning_analysis(background, w.g.bounds(),
                                      w.observations, w.ys, c.analysis);
  for (Index k = 0; k < direct.members.size(); ++k) {
    for (Index i = 0; i < w.g.size(); ++i) {
      EXPECT_DOUBLE_EQ(via_serial[k][i], direct.members[k].values()[i]);
    }
  }
}

TEST(SerialEnkf, LayeredRunCoversWholeDomain) {
  const World w(4);
  const auto l1 = serial_enkf(w.store, w.observations, w.ys, config_4x2(1));
  const auto l3 = serial_enkf(w.store, w.observations, w.ys, config_4x2(3));
  // Layered analysis differs (smaller expansions) but must stay close and
  // still improve the mean skill.
  EXPECT_GT(max_ensemble_difference(l1, l3), 0.0);
  const double before = mean_field_rmse(w.scenario.members, w.scenario.truth);
  EXPECT_LT(mean_field_rmse(l3, w.scenario.truth), before);
}

TEST(SerialEnkf, ReadsEachMemberOnce) {
  // Every (sub-domain, layer) patch is gathered in place from the one
  // load of each member: 8 reads, not 8·(1 + 8 sub-domains·2 layers).
  const World w(7);
  w.store.reset_counters();
  (void)serial_enkf(w.store, w.observations, w.ys, config_4x2(2));
  EXPECT_EQ(w.store.reads_issued(), 8u);
}

TEST(SerialEnkf, InvalidLayerCountThrows) {
  const World w(5);
  EXPECT_THROW(serial_enkf(w.store, w.observations, w.ys, config_4x2(5)),
               senkf::InvalidArgument);
}

TEST(SerialEnkf, DeterministicAcrossRuns) {
  const World w(6);
  const auto a = serial_enkf(w.store, w.observations, w.ys, config_4x2(2));
  const auto b = serial_enkf(w.store, w.observations, w.ys, config_4x2(2));
  EXPECT_DOUBLE_EQ(max_ensemble_difference(a, b), 0.0);
}

TEST(Diagnostics, MeanFieldAndSpread) {
  const grid::LatLonGrid g(4, 2);
  grid::Field a(g, 1.0), b(g, 3.0);
  const std::vector<grid::Field> ensemble{a, b};
  const grid::Field mean = ensemble_mean_field(ensemble);
  for (Index i = 0; i < mean.size(); ++i) EXPECT_DOUBLE_EQ(mean[i], 2.0);
  // Sample std with N−1: sqrt(((1−2)² + (3−2)²)/1) = √2.
  EXPECT_NEAR(ensemble_spread(ensemble), std::sqrt(2.0), 1e-12);
  const grid::Field truth(g, 2.0);
  EXPECT_DOUBLE_EQ(mean_field_rmse(ensemble, truth), 0.0);
  EXPECT_DOUBLE_EQ(ensemble_rmse(ensemble, truth), 1.0);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(ensemble, ensemble), 0.0);
}

}  // namespace
}  // namespace senkf::enkf
