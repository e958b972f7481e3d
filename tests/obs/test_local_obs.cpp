#include "obs/local_obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "grid/synthetic.hpp"
#include "linalg/ops.hpp"
#include "obs/perturbed.hpp"

namespace senkf::obs {
namespace {

struct Scenario {
  grid::LatLonGrid g{20, 12};
  grid::Field truth;
  ObservationSet set;

  explicit Scenario(std::uint64_t seed, Index stations = 60,
                    bool bilinear = false)
      : truth(make_truth(g, seed)),
        set(make_set(g, truth, seed, stations, bilinear)) {}

  static grid::Field make_truth(const grid::LatLonGrid& g, std::uint64_t s) {
    senkf::Rng rng(s);
    return grid::synthetic_field(g, rng);
  }
  static ObservationSet make_set(const grid::LatLonGrid& g,
                                 const grid::Field& truth, std::uint64_t s,
                                 Index stations, bool bilinear) {
    senkf::Rng rng(s + 1);
    NetworkOptions opt;
    opt.station_count = stations;
    opt.bilinear = bilinear;
    return random_network(g, truth, rng, opt);
  }
};

/// H̄ as the dense localization assembled it: one row per selected
/// component, h(row, local) += weight over the support in order.
linalg::Matrix dense_assembly(const ObservationSet& set,
                              const std::vector<Index>& selected,
                              grid::Rect rect) {
  linalg::Matrix h(selected.size(), rect.count(), 0.0);
  for (Index row = 0; row < selected.size(); ++row) {
    for (const auto& sp : set.components()[selected[row]].support) {
      const Index local = (sp.point.y - rect.y.begin) * rect.x.size() +
                          (sp.point.x - rect.x.begin);
      h(row, local) += sp.weight;
    }
  }
  return h;
}

TEST(LocalObservations, SelectsOnlySupportedComponents) {
  const Scenario sc(1);
  const grid::Rect rect{{5, 15}, {3, 9}};
  const LocalObservations local(sc.set, rect);
  for (const Index idx : local.selected()) {
    EXPECT_TRUE(sc.set.components()[idx].supported_by(rect));
  }
  // Complement check: everything not selected is genuinely unsupported.
  std::set<Index> chosen(local.selected().begin(), local.selected().end());
  for (Index i = 0; i < sc.set.size(); ++i) {
    if (!chosen.count(i)) {
      EXPECT_FALSE(sc.set.components()[i].supported_by(rect));
    }
  }
}

TEST(LocalObservations, WholeGridSelectsEverything) {
  const Scenario sc(2);
  const LocalObservations local(sc.set, sc.g.bounds());
  EXPECT_EQ(local.size(), sc.set.size());
}

TEST(LocalObservations, HAppliesLikeComponents) {
  for (const bool bilinear : {false, true}) {
    const Scenario sc(3, 60, bilinear);
    const grid::Rect rect{{2, 18}, {1, 11}};
    const LocalObservations local(sc.set, rect);
    ASSERT_GT(local.size(), 0u);
    const grid::Patch patch = sc.truth.extract(rect);
    const linalg::Vector hx = local.apply_h(patch);
    for (Index row = 0; row < local.size(); ++row) {
      const double direct =
          sc.set.components()[local.selected()[row]].apply(patch);
      EXPECT_NEAR(hx[row], direct, 1e-12) << "bilinear=" << bilinear;
    }
  }
}

TEST(LocalObservations, SparseRowsMatchSupport) {
  const Scenario sc(8, 60, /*bilinear=*/true);
  // Append a component naming one point twice, out of order: its row
  // must hold one entry with the summed weight.
  std::vector<ObsComponent> comps = sc.set.components();
  std::vector<double> values = sc.set.values();
  ObsComponent repeated;
  repeated.support = {{{6, 5}, 0.25}, {{5, 5}, 0.5}, {{6, 5}, 0.125}};
  comps.push_back(repeated);
  values.push_back(1.0);
  const ObservationSet set(sc.g, std::move(comps), std::move(values));

  const grid::Rect rect{{2, 18}, {1, 11}};
  const LocalObservations local(set, rect);
  ASSERT_EQ(local.selected().back(), set.size() - 1);
  const auto local_index = [&](grid::Point p) {
    return (p.y - rect.y.begin) * rect.x.size() + (p.x - rect.x.begin);
  };
  bool saw_bilinear = false;
  for (Index row = 0; row < local.size(); ++row) {
    const auto cols = local.row_columns(row);
    const auto weights = local.row_weights(row);
    ASSERT_EQ(cols.size(), weights.size());
    for (Index s = 1; s < cols.size(); ++s) EXPECT_LT(cols[s - 1], cols[s]);
    if (local.selected()[row] == set.size() - 1) continue;
    const auto& support = set.components()[local.selected()[row]].support;
    ASSERT_EQ(cols.size(), support.size());
    saw_bilinear |= support.size() == 4;
    for (const auto& sp : support) {
      const auto at =
          std::find(cols.begin(), cols.end(), local_index(sp.point));
      ASSERT_NE(at, cols.end());
      EXPECT_EQ(weights[at - cols.begin()], sp.weight);
    }
  }
  EXPECT_TRUE(saw_bilinear);

  const Index last = local.size() - 1;
  ASSERT_EQ(local.row_columns(last).size(), 2u);
  EXPECT_EQ(local.row_columns(last)[0], local_index({5, 5}));
  EXPECT_EQ(local.row_columns(last)[1], local_index({6, 5}));
  EXPECT_EQ(local.row_weights(last)[0], 0.5);
  EXPECT_EQ(local.row_weights(last)[1], 0.25 + 0.125);

  // The densifiers: h() is the dense assembly bit for bit, and
  // ht_rinv_h(), summed from station outer products, is the dense
  // product to rounding.
  const linalg::Matrix h = local.h();
  const linalg::Matrix want = dense_assembly(set, local.selected(), rect);
  ASSERT_EQ(h.rows(), want.rows());
  ASSERT_EQ(h.cols(), want.cols());
  for (Index i = 0; i < h.rows(); ++i) {
    for (Index j = 0; j < h.cols(); ++j) EXPECT_EQ(h(i, j), want(i, j));
  }
  const linalg::Matrix dense = linalg::multiply_at_b(h, local.rinv_h());
  const linalg::Matrix sparse = local.ht_rinv_h();
  double diff = 0.0;
  double scale = 0.0;
  for (Index i = 0; i < dense.rows(); ++i) {
    for (Index j = 0; j < dense.cols(); ++j) {
      diff = std::max(diff, std::abs(sparse(i, j) - dense(i, j)));
      scale = std::max(scale, std::abs(dense(i, j)));
    }
  }
  EXPECT_GT(scale, 0.0);
  EXPECT_LE(diff, 1e-14 * scale);
}

TEST(LocalObservations, RDiagonalHoldsVariances) {
  const Scenario sc(4);
  const LocalObservations local(sc.set, sc.g.bounds());
  for (Index row = 0; row < local.size(); ++row) {
    const double std = sc.set.components()[local.selected()[row]].error_std;
    EXPECT_DOUBLE_EQ(local.r_diagonal()[row], std * std);
  }
}

TEST(LocalObservations, SelectRowsExtractsMatchingYs) {
  const Scenario sc(5);
  const auto ys = perturbed_observations(sc.set, 6, senkf::Rng(50));
  const grid::Rect rect{{0, 10}, {0, 6}};
  const LocalObservations local(sc.set, rect);
  const auto local_ys = local.select_rows(ys);
  EXPECT_EQ(local_ys.rows(), local.size());
  EXPECT_EQ(local_ys.cols(), 6u);
  for (Index row = 0; row < local.size(); ++row) {
    for (Index k = 0; k < 6; ++k) {
      EXPECT_DOUBLE_EQ(local_ys(row, k), ys(local.selected()[row], k));
    }
  }
}

TEST(LocalObservations, EmptyRegionYieldsNoObs) {
  const Scenario sc(6, 5);
  // A 1×1 rect in a sparse network is almost surely observation-free; use
  // a rect we know has no stations by checking.
  const grid::Rect rect{{0, 1}, {0, 1}};
  const LocalObservations local(sc.set, rect);
  bool any_station_there = false;
  for (const auto& comp : sc.set.components()) {
    if (comp.supported_by(rect)) any_station_there = true;
  }
  EXPECT_EQ(local.empty(), !any_station_there);
}

TEST(LocalObservations, ApplyHRejectsWrongPatch) {
  const Scenario sc(7);
  const grid::Rect rect{{0, 10}, {0, 6}};
  const LocalObservations local(sc.set, rect);
  const grid::Patch wrong(grid::Rect{{0, 9}, {0, 6}}, 0.0);
  EXPECT_THROW(local.apply_h(wrong), senkf::InvalidArgument);
}

TEST(LocalObservations, BilinearSupportRespectsRectBoundary) {
  // A 4-point bilinear component straddling the rect edge must be dropped.
  const grid::LatLonGrid g(10, 10);
  grid::Field truth(g, 1.0);
  ObsComponent straddle;
  straddle.support = {{{4, 4}, 0.25}, {{5, 4}, 0.25}, {{4, 5}, 0.25},
                      {{5, 5}, 0.25}};
  ObservationSet set(g, {straddle}, {1.0});
  const LocalObservations cut(set, grid::Rect{{0, 5}, {0, 10}});
  EXPECT_TRUE(cut.empty());
  const LocalObservations keep(set, grid::Rect{{0, 6}, {0, 10}});
  EXPECT_EQ(keep.size(), 1u);
}

}  // namespace
}  // namespace senkf::obs
