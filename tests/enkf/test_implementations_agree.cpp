// Integration suite: the correctness gate of the whole reproduction.
//
// Serial reference, L-EnKF, P-EnKF and S-EnKF all call the same local
// analysis kernel on the same expansions with the same perturbed
// observations, so — whatever their schedules and data paths — their
// analysis ensembles must agree *bit for bit*.  These tests also check
// the §4.1 access-pattern claims on the numeric plane via the store's
// segment counters.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "enkf/diagnostics.hpp"
#include "enkf/lenkf.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"

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

EnkfRunConfig run_config(Index layers = 1) {
  EnkfRunConfig c;
  c.n_sdx = 4;
  c.n_sdy = 2;
  c.layers = layers;
  c.analysis.halo = grid::Halo{2, 1};
  return c;
}

SenkfConfig senkf_config(Index layers = 1, Index n_cg = 2) {
  SenkfConfig c;
  c.n_sdx = 4;
  c.n_sdy = 2;
  c.layers = layers;
  c.n_cg = n_cg;
  c.analysis.halo = grid::Halo{2, 1};
  return c;
}

TEST(Agreement, LenkfMatchesSerialExactly) {
  const World w(1);
  const auto gold = serial_enkf(w.store, w.observations, w.ys, run_config());
  const auto parallel = lenkf(w.store, w.observations, w.ys, run_config());
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, parallel), 0.0);
}

TEST(Agreement, PenkfMatchesSerialExactly) {
  const World w(2);
  const auto gold = serial_enkf(w.store, w.observations, w.ys, run_config());
  const auto parallel = penkf(w.store, w.observations, w.ys, run_config());
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, parallel), 0.0);
}

TEST(Agreement, SenkfMatchesSerialExactly) {
  const World w(3);
  const auto gold =
      serial_enkf(w.store, w.observations, w.ys, run_config(3));
  const auto parallel =
      senkf(w.store, w.observations, w.ys, senkf_config(3, 2));
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, parallel), 0.0);
}

TEST(Agreement, SenkfSingleLayerMatchesPenkf) {
  const World w(4);
  const auto p = penkf(w.store, w.observations, w.ys, run_config(1));
  const auto s = senkf(w.store, w.observations, w.ys, senkf_config(1, 2));
  EXPECT_DOUBLE_EQ(max_ensemble_difference(p, s), 0.0);
}

/// Forwards block and bar reads to `base`, but a whole-member load throws:
/// the engines build their output from the ranks' layer analyses alone,
/// never by re-reading the background.
class NoWholeMemberLoads final : public EnsembleStore {
 public:
  explicit NoWholeMemberLoads(const EnsembleStore& base) : base_(base) {}

  const grid::LatLonGrid& grid() const override { return base_.grid(); }
  Index members() const override { return base_.members(); }
  grid::Field load_member(Index k) const override {
    throw std::logic_error("load_member(" + std::to_string(k) +
                           ") called by a parallel engine");
  }
  grid::Patch read_block(Index k, grid::Rect rect) const override {
    return base_.read_block(k, rect);
  }
  grid::Patch read_bar(Index k, grid::IndexRange rows) const override {
    return base_.read_bar(k, rows);
  }

 private:
  const EnsembleStore& base_;
};

TEST(Agreement, ParallelEnginesNeverLoadWholeMembers) {
  const World w(6);
  const NoWholeMemberLoads store(w.store);
  const auto gold = serial_enkf(w.store, w.observations, w.ys, run_config(3));
  const auto l = lenkf(store, w.observations, w.ys, run_config(3));
  const auto p = penkf(store, w.observations, w.ys, run_config(3));
  const auto s = senkf(store, w.observations, w.ys, senkf_config(3, 2));
  EXPECT_EQ(max_ensemble_difference(gold, l), 0.0);
  EXPECT_EQ(max_ensemble_difference(gold, p), 0.0);
  EXPECT_EQ(max_ensemble_difference(gold, s), 0.0);
}

TEST(Agreement, SenkfThreadedAnalysisMatchesSerialExactly) {
  // The per-rank analysis pool only reschedules independent layer
  // analyses, each writing only its own layer target of the output
  // fields, so any pool width must be bitwise identical (the acceptance
  // gate for intra-rank threading).
  const World w(7);
  const auto gold = serial_enkf(w.store, w.observations, w.ys, run_config(3));
  SenkfConfig threaded = senkf_config(3, 2);
  threaded.analysis_threads = 3;
  const auto parallel = senkf(w.store, w.observations, w.ys, threaded);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, parallel), 0.0);
}

TEST(Agreement, SenkfInsensitiveToAnalysisThreadCount) {
  const World w(8);
  SenkfConfig narrow = senkf_config(6, 2);
  narrow.analysis_threads = 1;
  SenkfConfig wide = senkf_config(6, 2);
  wide.analysis_threads = 4;
  const auto one = senkf(w.store, w.observations, w.ys, narrow);
  const auto four = senkf(w.store, w.observations, w.ys, wide);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(one, four), 0.0);
}

TEST(Agreement, PenkfThreadedAnalysisMatchesSerialExactly) {
  const World w(9);
  const auto gold = serial_enkf(w.store, w.observations, w.ys, run_config(3));
  EnkfRunConfig threaded = run_config(3);
  threaded.analysis_threads = 3;
  const auto parallel = penkf(w.store, w.observations, w.ys, threaded);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, parallel), 0.0);
}

TEST(Agreement, SenkfInsensitiveToConcurrentGroupCount) {
  // n_cg only reroutes data; the numbers must not change at all.
  const World w(5);
  const auto one = senkf(w.store, w.observations, w.ys, senkf_config(2, 1));
  const auto two = senkf(w.store, w.observations, w.ys, senkf_config(2, 2));
  const auto six = senkf(w.store, w.observations, w.ys, senkf_config(2, 6));
  EXPECT_DOUBLE_EQ(max_ensemble_difference(one, two), 0.0);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(one, six), 0.0);
}

class LayerSweep : public ::testing::TestWithParam<int> {};

TEST_P(LayerSweep, SenkfMatchesSerialForEveryLayerCount) {
  const Index layers = static_cast<Index>(GetParam());
  const World w(10 + layers);
  const auto gold =
      serial_enkf(w.store, w.observations, w.ys, run_config(layers));
  const auto parallel =
      senkf(w.store, w.observations, w.ys, senkf_config(layers, 2));
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, parallel), 0.0);
}

// Sub-domain rows = 12/2 = 6 ⇒ valid layer counts 1, 2, 3, 6.
INSTANTIATE_TEST_SUITE_P(Layers, LayerSweep, ::testing::Values(1, 2, 3, 6));

// Property sweep: agreement must hold across the whole decomposition
// lattice, not just the 4×2 tile used above.
struct DecompCase {
  Index n_sdx;
  Index n_sdy;
  Index layers;
  Index n_cg;
};

class DecompositionSweep : public ::testing::TestWithParam<DecompCase> {};

TEST_P(DecompositionSweep, SenkfMatchesSerialAcrossDecompositions) {
  const DecompCase c = GetParam();
  const World w(100 + c.n_sdx * 7 + c.n_sdy * 3 + c.layers);
  EnkfRunConfig serial_config;
  serial_config.n_sdx = c.n_sdx;
  serial_config.n_sdy = c.n_sdy;
  serial_config.layers = c.layers;
  serial_config.analysis.halo = grid::Halo{2, 1};
  SenkfConfig parallel_config;
  parallel_config.n_sdx = c.n_sdx;
  parallel_config.n_sdy = c.n_sdy;
  parallel_config.layers = c.layers;
  parallel_config.n_cg = c.n_cg;
  parallel_config.analysis = serial_config.analysis;

  const auto gold =
      serial_enkf(w.store, w.observations, w.ys, serial_config);
  const auto parallel =
      senkf(w.store, w.observations, w.ys, parallel_config);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, parallel), 0.0);
}

// Grid is 24×12, 6 members: n_sdx | 24, n_sdy | 12, layers | 12/n_sdy,
// n_cg | 6.
INSTANTIATE_TEST_SUITE_P(
    Lattice, DecompositionSweep,
    ::testing::Values(DecompCase{1, 1, 1, 1}, DecompCase{1, 1, 4, 3},
                      DecompCase{2, 3, 2, 2}, DecompCase{3, 4, 3, 1},
                      DecompCase{6, 2, 6, 6}, DecompCase{8, 1, 12, 2},
                      DecompCase{12, 6, 2, 3}, DecompCase{24, 12, 1, 1},
                      DecompCase{4, 6, 1, 6}, DecompCase{2, 2, 3, 2}));

// Duplicate members + zero ridge make the regression Gram matrix singular
// inside every computation rank mid-pipeline.
struct SingularWorld {
  grid::LatLonGrid g{24, 12};
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;
  linalg::Matrix ys;
  MemoryEnsembleStore store;

  SingularWorld()
      : scenario(duplicated_members(g)),
        observations(make_obs(g, scenario.truth)),
        ys(obs::perturbed_observations(observations, 4, senkf::Rng(57))),
        store(g, scenario.members) {}

  static grid::SyntheticEnsemble duplicated_members(const grid::LatLonGrid& g) {
    senkf::Rng rng(55);
    auto scenario = grid::synthetic_ensemble(g, 4, rng, 0.5);
    scenario.members[1] = scenario.members[0];
    scenario.members[2] = scenario.members[0];
    scenario.members[3] = scenario.members[0];
    return scenario;
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& g,
                                      const grid::Field& truth) {
    senkf::Rng obs_rng(56);
    obs::NetworkOptions opt;
    opt.station_count = 50;
    return obs::random_network(g, truth, obs_rng, opt);
  }
};

TEST(FailureInjection, SingularCovarianceSurfacesAsNumericError) {
  // The error must propagate to the caller (not hang, not std::terminate
  // via the helper thread).
  const SingularWorld w;
  SenkfConfig config = senkf_config(2, 2);
  config.analysis.ridge = 0.0;
  EXPECT_THROW(senkf(w.store, w.observations, w.ys, config),
               senkf::NumericError);
}

TEST(FailureInjection, CancelledRankDrainsItsAnalysisPoolBeforeItsStages) {
  // A peer's NumericError cancels the run while a computation rank still
  // has layer analyses queued or running on its pool; unwinding that rank
  // must drain the pool before it frees the stage data the tasks read.
  // Four pool threads give every host queued work; the race is narrow,
  // so it takes many calls to hit it.
  const SingularWorld w;
  SenkfConfig config = senkf_config(2, 2);
  config.analysis.ridge = 0.0;
  config.analysis_threads = 4;
  for (int call = 0; call < 300; ++call) {
    ASSERT_THROW(senkf(w.store, w.observations, w.ys, config),
                 senkf::NumericError)
        << "call " << call;
  }
}

TEST(Agreement, AllImplementationsImproveSkillEqually) {
  const World w(6);
  const double before = mean_field_rmse(w.scenario.members, w.scenario.truth);
  const auto s = senkf(w.store, w.observations, w.ys, senkf_config(2, 2));
  const double after = mean_field_rmse(s, w.scenario.truth);
  EXPECT_LT(after, before);
}

TEST(AccessPatterns, SenkfTouchesFarFewerSegmentsThanPenkf) {
  const World w(7);
  w.store.reset_counters();
  (void)penkf(w.store, w.observations, w.ys, run_config(1));
  const auto penkf_segments = w.store.segments_touched();

  w.store.reset_counters();
  (void)senkf(w.store, w.observations, w.ys, senkf_config(1, 2));
  const auto senkf_segments = w.store.segments_touched();

  // P-EnKF: n_sdx·(rows+halo) segments per member; S-EnKF: n_sdy bars per
  // member (plus halo re-reads when L > 1).
  EXPECT_LT(senkf_segments * 3, penkf_segments);
}

TEST(AccessPatterns, SenkfStatsAreReported) {
  const World w(8);
  SenkfStats stats;
  (void)senkf(w.store, w.observations, w.ys, senkf_config(3, 2), &stats);
  // 8 comp ranks × 3 stages × 2 I/O groups: every group coalesces its
  // members' blocks into one message per (destination, stage).
  EXPECT_EQ(stats.messages, 8u * 3u * 2u);
  EXPECT_GT(stats.comp_update_seconds, 0.0);
  EXPECT_GE(stats.io_read_seconds, 0.0);
}

TEST(Validation, SenkfRejectsBadParameters) {
  const World w(9);
  SenkfConfig c = senkf_config();
  c.n_cg = 4;  // 6 members % 4 != 0
  EXPECT_THROW(senkf(w.store, w.observations, w.ys, c),
               senkf::InvalidArgument);
  c = senkf_config();
  c.layers = 5;  // 6 rows % 5 != 0
  EXPECT_THROW(senkf(w.store, w.observations, w.ys, c),
               senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::enkf
