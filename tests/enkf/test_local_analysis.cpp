#include "enkf/local_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "enkf/ensemble_store.hpp"
#include "grid/synthetic.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/ops.hpp"
#include "linalg/solve.hpp"
#include "owning_analysis.hpp"
#include "support/arena.hpp"

namespace senkf::enkf {
namespace {

struct Scenario {
  grid::LatLonGrid g{16, 12};
  grid::SyntheticEnsemble ensemble;
  obs::ObservationSet observations;
  linalg::Matrix ys;

  explicit Scenario(std::uint64_t seed, Index members = 8,
                    Index stations = 40, bool bilinear = false)
      : ensemble(make_ensemble(g, members, seed)),
        observations(make_obs(g, ensemble.truth, seed, stations, bilinear)),
        ys(obs::perturbed_observations(observations, members,
                                       senkf::Rng(seed + 99))) {}

  static grid::SyntheticEnsemble make_ensemble(const grid::LatLonGrid& g,
                                               Index members,
                                               std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(g, members, rng, 0.5);
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& g,
                                      const grid::Field& truth,
                                      std::uint64_t seed, Index stations,
                                      bool bilinear) {
    senkf::Rng rng(seed + 1);
    obs::NetworkOptions opt;
    opt.station_count = stations;
    opt.error_std = 0.05;
    opt.bilinear = bilinear;
    return obs::random_network(g, truth, rng, opt);
  }

  std::vector<grid::Patch> patches(grid::Rect rect) const {
    std::vector<grid::Patch> out;
    for (const auto& member : ensemble.members) {
      out.push_back(member.extract(rect));
    }
    return out;
  }
};

AnalysisOptions default_options() {
  AnalysisOptions opt;
  opt.halo = grid::Halo{2, 1};
  opt.ridge = 1e-6;
  return opt;
}

TEST(LocalAnalysis, ReducesErrorAgainstTruth) {
  const Scenario sc(1);
  const grid::Rect whole = sc.g.bounds();
  const auto result = owning_analysis(sc.patches(whole), whole,
                                      sc.observations, sc.ys,
                                      default_options());
  ASSERT_EQ(result.members.size(), sc.ensemble.members.size());
  const grid::Patch truth_patch = sc.ensemble.truth.extract(whole);
  double before = 0.0, after = 0.0;
  for (Index k = 0; k < result.members.size(); ++k) {
    const grid::Patch bg = sc.ensemble.members[k].extract(whole);
    for (Index i = 0; i < truth_patch.size(); ++i) {
      const double tb = bg.values()[i] - truth_patch.values()[i];
      const double ta = result.members[k].values()[i] -
                        truth_patch.values()[i];
      before += tb * tb;
      after += ta * ta;
    }
  }
  EXPECT_LT(after, 0.6 * before);
}

TEST(LocalAnalysis, NoObservationsLeavesBackgroundUntouched) {
  const Scenario sc(2, 8, 1);
  // Find a rect guaranteed to contain no stations.
  grid::Rect rect{{0, 4}, {0, 4}};
  const auto& comp = sc.observations.components()[0];
  if (comp.supported_by(rect)) rect = grid::Rect{{8, 12}, {6, 10}};
  ASSERT_FALSE(comp.supported_by(rect));
  const auto result = owning_analysis(sc.patches(rect), rect, sc.observations,
                                      sc.ys, default_options());
  for (Index k = 0; k < result.members.size(); ++k) {
    const grid::Patch bg = sc.ensemble.members[k].extract(rect);
    EXPECT_EQ(result.members[k].values(), bg.values());
  }
}

TEST(LocalAnalysis, MatchesIndependentDenseSolve) {
  // Rebuild eq. (5)/(6) with an LU solve (independent of the production
  // Cholesky path) and compare.
  const Scenario sc(3, 6, 25);
  const grid::Rect rect = sc.g.bounds();
  const AnalysisOptions opt = default_options();
  const auto result =
      owning_analysis(sc.patches(rect), rect, sc.observations, sc.ys, opt);

  const Index n = rect.count();
  const Index members = sc.ensemble.members.size();
  linalg::Matrix xb(n, members);
  for (Index k = 0; k < members; ++k) {
    const auto patch = sc.ensemble.members[k].extract(rect);
    for (Index i = 0; i < n; ++i) xb(i, k) = patch.values()[i];
  }
  const auto binv = linalg::estimate_inverse_covariance(
      linalg::ensemble_anomalies(xb),
      ExpansionPredecessorOracle(rect, opt.halo), opt.ridge);
  const obs::LocalObservations local(sc.observations, rect);
  linalg::Matrix system = binv.inverse_covariance();
  linalg::Matrix rinv_h = local.h();
  for (Index r = 0; r < local.size(); ++r) {
    for (Index cidx = 0; cidx < rinv_h.cols(); ++cidx) {
      rinv_h(r, cidx) /= local.r_diagonal()[r];
    }
  }
  linalg::axpy(1.0, linalg::multiply_at_b(local.h(), rinv_h), system);
  linalg::Matrix innovations = linalg::multiply(local.h(), xb);
  linalg::scale(innovations, -1.0);
  linalg::axpy(1.0, local.select_rows(sc.ys), innovations);
  for (Index r = 0; r < local.size(); ++r) {
    for (Index cidx = 0; cidx < innovations.cols(); ++cidx) {
      innovations(r, cidx) /= local.r_diagonal()[r];
    }
  }
  const linalg::Matrix rhs =
      linalg::multiply_at_b(local.h(), innovations);
  const linalg::Matrix delta = linalg::LuFactor(system).solve(rhs);

  for (Index k = 0; k < members; ++k) {
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(result.members[k].values()[i], xb(i, k) + delta(i, k),
                  1e-8);
    }
  }
}

TEST(LocalAnalysis, TargetProjectionExtractsSubRect) {
  const Scenario sc(4);
  const grid::Rect expansion{{0, 12}, {0, 8}};
  const grid::Rect target{{2, 8}, {2, 6}};
  const auto full = owning_analysis(sc.patches(expansion), expansion,
                                    sc.observations, sc.ys, default_options());
  const auto projected = owning_analysis(sc.patches(expansion), target,
                                         sc.observations, sc.ys,
                                         default_options());
  for (Index k = 0; k < projected.members.size(); ++k) {
    for (Index y = target.y.begin; y < target.y.end; ++y) {
      for (Index x = target.x.begin; x < target.x.end; ++x) {
        EXPECT_DOUBLE_EQ(projected.members[k].at(x, y),
                         full.members[k].at(x, y));
      }
    }
  }
}

TEST(LocalAnalysis, ValidatesInputs) {
  const Scenario sc(5);
  const grid::Rect rect{{0, 8}, {0, 8}};
  auto patches = sc.patches(rect);
  // Target outside expansion.
  EXPECT_THROW(owning_analysis(patches, grid::Rect{{0, 9}, {0, 8}},
                               sc.observations, sc.ys, default_options()),
               senkf::InvalidArgument);
  // A member that does not cover the expansion (the first member's rect).
  auto bad = patches;
  bad[1] = sc.ensemble.members[1].extract(grid::Rect{{0, 8}, {0, 7}});
  EXPECT_THROW(owning_analysis(bad, rect, sc.observations, sc.ys,
                               default_options()),
               senkf::InvalidArgument);
  // Too few members.
  EXPECT_THROW(owning_analysis({patches[0]}, rect, sc.observations, sc.ys,
                               default_options()),
               senkf::InvalidArgument);
  // Wrong Ys width.
  linalg::Matrix bad_ys(sc.observations.size(), 3);
  EXPECT_THROW(owning_analysis(patches, rect, sc.observations, bad_ys,
                               default_options()),
               senkf::InvalidArgument);
}

std::vector<linalg::Index> oracle_predecessors(grid::Rect rect,
                                               grid::Halo halo,
                                               linalg::Index i) {
  ExpansionPredecessorOracle oracle(rect, halo);
  support::Arena arena;
  const auto pred = oracle.predecessors(i, arena);
  return {pred.begin(), pred.end()};
}

TEST(ExpansionPredecessors, RespectsHaloWindow) {
  const grid::Rect rect{{0, 5}, {0, 4}};  // 5 wide, 4 tall
  const grid::Halo halo{1, 1};
  EXPECT_TRUE(oracle_predecessors(rect, halo, 0).empty());
  // Point (x=2, y=1) = index 7: window x∈{1,2,3}, y∈{0,1}, earlier only.
  EXPECT_EQ(oracle_predecessors(rect, halo, 7),
            (std::vector<linalg::Index>{1, 2, 3, 6}));
  // Point (x=0, y=2) = index 10: window x∈{0,1}, y∈{1,2}.
  EXPECT_EQ(oracle_predecessors(rect, halo, 10),
            (std::vector<linalg::Index>{5, 6}));
}

TEST(ExpansionPredecessors, ZeroHaloGivesNoPredecessors) {
  const grid::Rect rect{{0, 4}, {0, 4}};
  for (Index i = 0; i < 16; ++i) {
    EXPECT_TRUE(oracle_predecessors(rect, grid::Halo{0, 0}, i).empty());
  }
}

TEST(ExpansionPredecessors, StayWithinTheBandAndMatchBruteForce) {
  // The oracle's set for point i is every earlier point at most ξ
  // columns and η rows away, in increasing index order.  The banded
  // analysis rests on it: under the row-major ordering of a W-wide
  // expansion every predecessor is at most η·W+ξ points back — also when
  // the halo is wider than the expansion (ξ ≥ W).
  const grid::Rect rect{{3, 8}, {2, 6}};  // W = 5, 4 rows
  const Index width = rect.x.size();
  for (const grid::Halo halo :
       {grid::Halo{0, 0}, grid::Halo{1, 0}, grid::Halo{0, 1},
        grid::Halo{2, 1}, grid::Halo{5, 1}, grid::Halo{7, 2},
        grid::Halo{4, 3}}) {
    SCOPED_TRACE("halo {" + std::to_string(halo.xi) + "," +
                 std::to_string(halo.eta) + "}");
    for (Index i = 0; i < rect.count(); ++i) {
      const Index xi = i % width;
      const Index yi = i / width;
      std::vector<linalg::Index> want;
      for (Index j = 0; j < i; ++j) {
        const Index xj = j % width;
        const Index dx = xi > xj ? xi - xj : xj - xi;
        if (dx <= halo.xi && yi - j / width <= halo.eta) want.push_back(j);
      }
      const auto pred = oracle_predecessors(rect, halo, i);
      EXPECT_EQ(pred, want) << "i=" << i;
      for (const Index j : pred) {
        EXPECT_LT(j, i);
        EXPECT_LE(i - j, halo.eta * width + halo.xi) << "i=" << i;
      }
    }
  }
}

TEST(LocalAnalysis, RejectsDeflationWithoutObservations) {
  // inflation < 1 is rejected up front, also on a rect the analysis
  // would otherwise skip for lack of observations.
  const Scenario sc(2, 8, 1);
  grid::Rect rect{{0, 4}, {0, 4}};
  const auto& comp = sc.observations.components()[0];
  if (comp.supported_by(rect)) rect = grid::Rect{{8, 12}, {6, 10}};
  ASSERT_FALSE(comp.supported_by(rect));
  AnalysisOptions opt = default_options();
  opt.inflation = 0.5;
  EXPECT_THROW(owning_analysis(sc.patches(rect), rect, sc.observations, sc.ys,
                               opt),
               senkf::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Footprints wider than the halo: a bilinear station couples points W+1
// apart, which is wider than L's reach η·W+ξ when η = 0 or when η = 1
// and ξ = 0.  The observation-space update must still reproduce the
// dense solve of B̂⁻¹ + HᵀR⁻¹H.
// ---------------------------------------------------------------------------

struct DenseSystem {
  linalg::Matrix xb;      ///< X̄ᵇ (n̄×N)
  linalg::Matrix system;  ///< dense B̂⁻¹ + HᵀR⁻¹H
  linalg::Matrix rhs;     ///< HᵀR⁻¹(Yˢ − HX̄ᵇ)
};

DenseSystem dense_system(const Scenario& sc, grid::Rect rect,
                         const AnalysisOptions& opt) {
  const Index n = rect.count();
  const Index members = sc.ensemble.members.size();
  DenseSystem out{linalg::Matrix(n, members), {}, {}};
  for (Index k = 0; k < members; ++k) {
    const auto patch = sc.ensemble.members[k].extract(rect);
    for (Index i = 0; i < n; ++i) out.xb(i, k) = patch.values()[i];
  }
  const auto binv = linalg::estimate_inverse_covariance(
      linalg::ensemble_anomalies(out.xb),
      ExpansionPredecessorOracle(rect, opt.halo), opt.ridge);
  const obs::LocalObservations local(sc.observations, rect);
  out.system = binv.inverse_covariance();
  linalg::axpy(1.0, local.ht_rinv_h(), out.system);
  linalg::Matrix innovations = linalg::subtract(
      local.select_rows(sc.ys), linalg::multiply(local.h(), out.xb));
  linalg::row_scale(local.r_inverse(), innovations);
  out.rhs = linalg::multiply_at_b(local.h(), innovations);
  return out;
}

/// max|got − want| / max|want| over every member.
double normwise_error(const linalg::Matrix& got, const linalg::Matrix& want) {
  double diff = 0.0, scale = 0.0;
  for (Index i = 0; i < want.rows(); ++i) {
    for (Index k = 0; k < want.cols(); ++k) {
      diff = std::max(diff, std::abs(got(i, k) - want(i, k)));
      scale = std::max(scale, std::abs(want(i, k)));
    }
  }
  return diff / scale;
}

TEST(LocalAnalysis, BilinearFootprintsWiderThanTheHaloMatchTheDenseSolve) {
  const Scenario sc(7, 8, 40, /*bilinear=*/true);
  const grid::Rect rect = sc.g.bounds();
  const Index width = rect.x.size();
  for (const grid::Halo halo :
       {grid::Halo{0, 0}, grid::Halo{0, 1}, grid::Halo{1, 0}}) {
    SCOPED_TRACE("halo {" + std::to_string(halo.xi) + "," +
                 std::to_string(halo.eta) + "}");
    // A bilinear footprint (W+1 apart) reaches past L's η·W+ξ.
    ASSERT_LT(halo.eta * width + halo.xi, width + 1);
    AnalysisOptions opt = default_options();
    opt.halo = halo;
    const DenseSystem dense = dense_system(sc, rect, opt);
    linalg::Matrix want = linalg::solve_spd(dense.system, dense.rhs);
    linalg::axpy(1.0, dense.xb, want);

    const auto result =
        owning_analysis(sc.patches(rect), rect, sc.observations, sc.ys, opt);
    linalg::Matrix got(rect.count(), result.members.size());
    for (Index k = 0; k < result.members.size(); ++k) {
      for (Index i = 0; i < rect.count(); ++i) {
        got(i, k) = result.members[k].values()[i];
      }
    }
    EXPECT_LE(normwise_error(got, want), 1e-9);
  }
}

}  // namespace
}  // namespace senkf::enkf
