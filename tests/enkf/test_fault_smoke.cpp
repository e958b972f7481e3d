// Degraded-mode acceptance gate (DESIGN.md §9).
//
// The S-EnKF read path must *survive* an injected-faulty file system:
//  * transient EIO-style failures retry away and the analysis stays
//    bitwise identical to the fault-free run;
//  * a permanently dead member file shrinks the ensemble to the N−k
//    survivors, bitwise identical to a fault-free run on that subset;
//  * a straggling I/O rank only slows the run: the result is again
//    bitwise identical;
//  * a member dropped by the readers of some sub-domain rows only is a
//    ProtocolError, never an analysis with zeros in those rows' bands;
//  * a failing rank ends the call at once, in L-EnKF as in S-EnKF.
// Every degradation is observable: pfs.fault.* and senkf.read.* counters
// move, and SenkfStats reports retries and dropped members.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "enkf/diagnostics.hpp"
#include "enkf/faulty_store.hpp"
#include "enkf/lenkf.hpp"
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

SenkfConfig senkf_config(Index layers = 3, Index n_cg = 2) {
  SenkfConfig c;
  c.n_sdx = 4;
  c.n_sdy = 2;
  c.layers = layers;
  c.n_cg = n_cg;
  c.analysis.halo = grid::Halo{2, 1};
  return c;
}

TEST(FaultSmoke, TransientFaultsRetryAwayBitwiseIdentically) {
  const World w(31);
  const auto clean = senkf(w.store, w.observations, w.ys, senkf_config());

  // 5% per-read fault probability over ~36 bar reads: any single seed may
  // draw an all-clean schedule, so sweep a few seeds — every run must be
  // bitwise identical, and the sweep as a whole must inject something.
  std::uint64_t retries_total = 0;
  const std::uint64_t injected_before =
      pfs::FaultMetrics::get().injected.value();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const pfs::FaultPlan plan = pfs::parse_fault_plan(
        "seed=" + std::to_string(seed) + ",transient=0.05,burst=2");
    const FaultyEnsembleStore faulty(w.store, plan);
    SenkfStats stats;
    const auto degraded =
        senkf(faulty, w.observations, w.ys, senkf_config(), &stats);
    EXPECT_DOUBLE_EQ(max_ensemble_difference(clean, degraded), 0.0)
        << "fault seed " << seed;
    EXPECT_TRUE(stats.dropped_members.empty());
    retries_total += stats.read_retries;
  }
  EXPECT_GT(retries_total, 0u);
  EXPECT_GT(pfs::FaultMetrics::get().injected.value(), injected_before);
}

TEST(FaultSmoke, FaultsFromEnvironmentSpec) {
  // The whole fault layer is reachable without code: SENKF_FAULTS is the
  // only switch.  burst=1 under a heavy probability keeps every op
  // survivable within the default retry budget.
  const World w(32);
  const auto clean = senkf(w.store, w.observations, w.ys, senkf_config());
  ::setenv("SENKF_FAULTS", "seed=4,transient=0.3,burst=1", 1);
  const auto plan = pfs::fault_plan_from_env();
  ::unsetenv("SENKF_FAULTS");
  ASSERT_TRUE(plan.has_value());
  const FaultyEnsembleStore faulty(w.store, *plan);
  SenkfStats stats;
  const auto degraded =
      senkf(faulty, w.observations, w.ys, senkf_config(), &stats);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(clean, degraded), 0.0);
  EXPECT_GT(stats.read_retries, 0u);
}

TEST(FaultSmoke, DeadMemberIsDroppedAndSurvivorsMatchTheSubsetRun) {
  const World w(33);
  const Index dead = 2;

  // Fault-free reference on the surviving 5 members with the matching Yˢ
  // columns — what "continue on N−k" must equal bit for bit.
  std::vector<grid::Field> survivors;
  std::vector<Index> live;
  for (Index k = 0; k < 6; ++k) {
    if (k == dead) continue;
    survivors.push_back(w.scenario.members[k]);
    live.push_back(k);
  }
  linalg::Matrix ys_live(w.ys.rows(), live.size());
  for (linalg::Index i = 0; i < w.ys.rows(); ++i) {
    for (linalg::Index j = 0; j < live.size(); ++j) {
      ys_live(i, j) = w.ys(i, live[j]);
    }
  }
  const MemoryEnsembleStore subset_store(w.g, survivors);
  // 5 members: n_cg must divide N, so the reference uses one group.
  const auto gold =
      senkf(subset_store, w.observations, ys_live, senkf_config(3, 1));

  const std::uint64_t dead_before =
      pfs::FaultMetrics::get().dead_reads.value();
  const FaultyEnsembleStore faulty(
      w.store, pfs::parse_fault_plan("dead=" + std::to_string(dead)));
  SenkfStats stats;
  const auto degraded =
      senkf(faulty, w.observations, w.ys, senkf_config(3, 1), &stats);

  ASSERT_EQ(degraded.size(), 5u);
  EXPECT_EQ(stats.dropped_members, (std::vector<Index>{dead}));
  EXPECT_DOUBLE_EQ(max_ensemble_difference(gold, degraded), 0.0);
  EXPECT_GT(pfs::FaultMetrics::get().dead_reads.value(), dead_before);
}

TEST(FaultSmoke, DeadMemberAbortsWhenDroppingIsDisabled) {
  const World w(34);
  const FaultyEnsembleStore faulty(w.store, pfs::parse_fault_plan("dead=1"));
  SenkfConfig config = senkf_config();
  config.fault.drop_unreadable_members = false;
  EXPECT_THROW(senkf(faulty, w.observations, w.ys, config),
               pfs::PermanentReadError);
}

TEST(FaultSmoke, LenkfDeadMemberFailsFast) {
  // L-EnKF's single reader throws on the dead file while every other rank
  // waits for its scatter.  The runtime cancels the run on that first
  // error, so the call fails with it at once instead of after the 30 s
  // mailbox timeout.
  const World w(38);
  const FaultyEnsembleStore faulty(w.store, pfs::parse_fault_plan("dead=1"));
  EnkfRunConfig config;
  config.n_sdx = 4;
  config.n_sdy = 2;
  config.layers = 3;
  config.analysis.halo = grid::Halo{2, 1};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(lenkf(faulty, w.observations, w.ys, config),
               pfs::PermanentReadError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

/// Forwards every read to `base`, but member `dead`'s bars starting at
/// row `first_row` or later are permanently unreadable.
class DeadFromRow final : public EnsembleStore {
 public:
  DeadFromRow(const EnsembleStore& base, Index dead, Index first_row)
      : base_(base), dead_(dead), first_row_(first_row) {}

  const grid::LatLonGrid& grid() const override { return base_.grid(); }
  Index members() const override { return base_.members(); }
  grid::Field load_member(Index k) const override {
    return base_.load_member(k);
  }
  grid::Patch read_block(Index k, grid::Rect rect) const override {
    return base_.read_block(k, rect);
  }
  grid::Patch read_bar(Index k, grid::IndexRange rows) const override {
    if (k == dead_ && rows.begin >= first_row_) {
      throw pfs::PermanentReadError("member " + std::to_string(k) +
                                    " unreadable from row " +
                                    std::to_string(first_row_));
    }
    return base_.read_bar(k, rows);
  }

 private:
  const EnsembleStore& base_;
  Index dead_;
  Index first_row_;
};

TEST(FaultSmoke, MemberDeadInOneRowOnlyIsRejected) {
  // On 24×12 with n_sdy = 2, L = 3 and η = 1, row 0's stage bars start at
  // rows 0, 1 and 3 and row 1's at rows 5, 7 and 9: only row 1's readers
  // drop member 2.  Row 0's ranks still analyse it, so its field would
  // keep zeros in row 1's band; the computation ranks' live sets must
  // agree instead.
  const World w(39);
  const DeadFromRow store(w.store, 2, 5);
  EXPECT_THROW(senkf(store, w.observations, w.ys, senkf_config()),
               senkf::ProtocolError);
}

TEST(FaultSmoke, StragglerDelayJustSlowsTheRun) {
  // I/O rank ordinal 0 (group 0, row 0) blocks its row's stages while the
  // other group runs ahead, but the result is untouched.
  const World w(36);
  const SenkfConfig config = senkf_config(3, 2);
  const auto clean = senkf(w.store, w.observations, w.ys, config);
  const FaultyEnsembleStore faulty(
      w.store, pfs::parse_fault_plan("straggler=0:0.01"));
  SenkfStats stats;
  const auto degraded = senkf(faulty, w.observations, w.ys, config, &stats);
  EXPECT_DOUBLE_EQ(max_ensemble_difference(clean, degraded), 0.0);
  EXPECT_TRUE(stats.dropped_members.empty());
}

TEST(FaultSmoke, RejectsInvalidFaultToleranceOptions) {
  const World w(37);
  SenkfConfig config = senkf_config();
  config.fault.retry.max_attempts = 0;
  EXPECT_THROW(senkf(w.store, w.observations, w.ys, config),
               senkf::InvalidArgument);
  config = senkf_config();
  config.fault.retry.jitter = 1.5;
  EXPECT_THROW(senkf(w.store, w.observations, w.ys, config),
               senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::enkf
