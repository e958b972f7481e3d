#include "obs/observation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "grid/synthetic.hpp"

namespace senkf::obs {
namespace {

TEST(ObsComponent, ApplyToField) {
  const grid::LatLonGrid g(4, 4);
  grid::Field f(g);
  f.at(1, 2) = 3.0;
  f.at(2, 2) = 5.0;
  ObsComponent comp;
  comp.support = {{{1, 2}, 0.5}, {{2, 2}, 0.5}};
  EXPECT_DOUBLE_EQ(comp.apply(f), 4.0);
}

TEST(ObsComponent, ApplyToPatchRequiresCoverage) {
  ObsComponent comp;
  comp.support = {{{3, 3}, 1.0}};
  grid::Patch inside(grid::Rect{{2, 5}, {2, 5}}, 7.0);
  EXPECT_DOUBLE_EQ(comp.apply(inside), 7.0);
  grid::Patch outside(grid::Rect{{0, 3}, {0, 3}}, 7.0);
  EXPECT_THROW(comp.apply(outside), senkf::InvalidArgument);
}

TEST(ObsComponent, SupportedBy) {
  ObsComponent comp;
  comp.support = {{{2, 2}, 0.5}, {{3, 2}, 0.5}};
  EXPECT_TRUE(comp.supported_by(grid::Rect{{0, 5}, {0, 5}}));
  EXPECT_FALSE(comp.supported_by(grid::Rect{{0, 3}, {0, 5}}));
}

TEST(ObservationSet, ValidatesInputs) {
  const grid::LatLonGrid g(4, 4);
  ObsComponent ok;
  ok.support = {{{1, 1}, 1.0}};
  // Count mismatch.
  EXPECT_THROW(ObservationSet(g, {ok}, {}), senkf::InvalidArgument);
  // Empty support.
  EXPECT_THROW(ObservationSet(g, {ObsComponent{}}, {1.0}),
               senkf::InvalidArgument);
  // Support outside grid.
  ObsComponent outside;
  outside.support = {{{9, 1}, 1.0}};
  EXPECT_THROW(ObservationSet(g, {outside}, {1.0}), senkf::InvalidArgument);
  // Non-positive error.
  ObsComponent bad_err = ok;
  bad_err.error_std = 0.0;
  EXPECT_THROW(ObservationSet(g, {bad_err}, {1.0}), senkf::InvalidArgument);
}

TEST(ObservationSet, RejectsNonFiniteNumbers) {
  // A NaN or infinity would load silently and poison every analysis
  // that selects the station.
  const grid::LatLonGrid g(4, 4);
  ObsComponent ok;
  ok.support = {{{1, 1}, 0.5}, {{2, 1}, 0.5}};
  ObsComponent nan_weight = ok;
  nan_weight.support[1].weight = std::nan("");
  EXPECT_THROW(ObservationSet(g, {nan_weight}, {1.0}), senkf::Error);
  EXPECT_THROW(ObservationSet(g, {ok}, {std::nan("")}), senkf::Error);
  ObsComponent inf_error = ok;
  inf_error.error_std = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ObservationSet(g, {inf_error}, {1.0}), senkf::Error);
  EXPECT_NO_THROW(ObservationSet(g, {ok}, {1.0}));
}

TEST(RandomNetwork, GeneratesRequestedStations) {
  const grid::LatLonGrid g(20, 10);
  senkf::Rng rng(1);
  const grid::Field truth = grid::synthetic_field(g, rng);
  NetworkOptions opt;
  opt.station_count = 50;
  const ObservationSet set = random_network(g, truth, rng, opt);
  EXPECT_EQ(set.size(), 50u);
  EXPECT_EQ(set.values().size(), 50u);
}

TEST(RandomNetwork, StationsAreUniqueLocations) {
  const grid::LatLonGrid g(8, 8);
  senkf::Rng rng(2);
  const grid::Field truth = grid::synthetic_field(g, rng);
  NetworkOptions opt;
  opt.station_count = 64;  // all points — forces uniqueness logic
  const ObservationSet set = random_network(g, truth, rng, opt);
  std::set<grid::Index> seen;
  for (const auto& comp : set.components()) {
    ASSERT_EQ(comp.support.size(), 1u);
    EXPECT_TRUE(seen
                    .insert(g.flat_index(comp.support[0].point.x,
                                         comp.support[0].point.y))
                    .second);
  }
}

TEST(RandomNetwork, ValuesNearTruth) {
  const grid::LatLonGrid g(16, 16);
  senkf::Rng rng(3);
  const grid::Field truth = grid::synthetic_field(g, rng);
  NetworkOptions opt;
  opt.station_count = 100;
  opt.error_std = 0.05;
  const ObservationSet set = random_network(g, truth, rng, opt);
  double sum_sq = 0.0;
  for (grid::Index i = 0; i < set.size(); ++i) {
    const double clean = set.components()[i].apply(truth);
    const double noise = set.values()[i] - clean;
    sum_sq += noise * noise;
  }
  const double rms = std::sqrt(sum_sq / static_cast<double>(set.size()));
  EXPECT_NEAR(rms, 0.05, 0.03);
}

TEST(RandomNetwork, BilinearComponentsHaveFourPointSupport) {
  const grid::LatLonGrid g(16, 16);
  senkf::Rng rng(4);
  const grid::Field truth = grid::synthetic_field(g, rng);
  NetworkOptions opt;
  opt.station_count = 30;
  opt.bilinear = true;
  const ObservationSet set = random_network(g, truth, rng, opt);
  for (const auto& comp : set.components()) {
    if (comp.support.size() == 4) {
      double weight_sum = 0.0;
      for (const auto& sp : comp.support) weight_sum += sp.weight;
      EXPECT_NEAR(weight_sum, 1.0, 1e-12);  // bilinear partition of unity
    }
  }
}

TEST(RandomNetwork, TooManyStationsThrows) {
  const grid::LatLonGrid g(3, 3);
  senkf::Rng rng(5);
  const grid::Field truth(g);
  NetworkOptions opt;
  opt.station_count = 10;
  EXPECT_THROW(random_network(g, truth, rng, opt), senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::obs
