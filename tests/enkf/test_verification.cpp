#include "enkf/verification.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"

namespace senkf::enkf {
namespace {

struct World {
  grid::LatLonGrid g{24, 16};
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;

  explicit World(std::uint64_t seed, Index members = 20,
                 Index stations = 60, double error_std = 0.1)
      : scenario(make(g, members, seed)),
        observations(make_obs(g, scenario.truth, seed, stations, error_std)) {
  }
  static grid::SyntheticEnsemble make(const grid::LatLonGrid& g,
                                      Index members, std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(g, members, rng, 0.5);
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& g,
                                      const grid::Field& truth,
                                      std::uint64_t seed, Index stations,
                                      double error_std) {
    senkf::Rng rng(seed + 1);
    obs::NetworkOptions opt;
    opt.station_count = stations;
    opt.error_std = error_std;
    return obs::random_network(g, truth, rng, opt);
  }
};

TEST(Innovation, ConsistentEnsembleScoresNearOne) {
  // The synthetic ensemble is drawn around the truth with the very
  // statistics it claims, so χ²/m ≈ 1.
  const World w(1, 40, 80);
  const auto stats = innovation_statistics(w.scenario.members,
                                           w.observations);
  EXPECT_EQ(stats.observations, 80u);
  EXPECT_GT(stats.normalized(), 0.4);
  EXPECT_LT(stats.normalized(), 2.5);
}

TEST(Innovation, OverconfidentEnsembleScoresHigh) {
  // Collapse the ensemble onto one member: its claimed spread vanishes
  // while its real error (one full background draw) stays — χ²/m must
  // blow up past the consistent range.
  const World w(2, 20, 60);
  auto collapsed = w.scenario.members;
  for (std::size_t k = 1; k < collapsed.size(); ++k) {
    for (Index i = 0; i < collapsed[k].size(); ++i) {
      collapsed[k][i] = collapsed[0][i] +
                        1e-4 * (collapsed[k][i] - collapsed[0][i]);
    }
  }
  const auto consistent =
      innovation_statistics(w.scenario.members, w.observations);
  const auto overconfident = innovation_statistics(collapsed, w.observations);
  EXPECT_GT(overconfident.normalized(), 3.0 * consistent.normalized());
}

TEST(Innovation, UnbiasedEnsembleHasSmallMeanInnovation) {
  const World w(3, 40, 100);
  const auto stats = innovation_statistics(w.scenario.members,
                                           w.observations);
  EXPECT_LT(std::abs(stats.mean_innovation), 0.2);
}

TEST(Innovation, Validation) {
  const World w(4);
  EXPECT_THROW(innovation_statistics({w.scenario.members[0]},
                                     w.observations),
               senkf::InvalidArgument);
}

/// Test-local dense oracle for dᵀ(HBHᵀ+R)⁻¹d: forms the m×m S in long
/// double, Cholesky-factors it and takes |L⁻¹d|².  Production works in
/// ensemble space; this is the textbook form it must reproduce.
struct DenseInnovation {
  long double chi2 = 0.0L;
  long double mean_innovation = 0.0L;
};

DenseInnovation dense_innovation(const std::vector<grid::Field>& ensemble,
                                 const obs::ObservationSet& observations) {
  const std::size_t m = observations.size();
  const std::size_t n = ensemble.size();
  std::vector<long double> anomalies(m * n);
  std::vector<long double> d(m);
  DenseInnovation out;
  for (std::size_t r = 0; r < m; ++r) {
    long double mean = 0.0L;
    for (std::size_t k = 0; k < n; ++k) {
      anomalies[r * n + k] = observations.components()[r].apply(ensemble[k]);
      mean += anomalies[r * n + k];
    }
    mean /= static_cast<long double>(n);
    for (std::size_t k = 0; k < n; ++k) anomalies[r * n + k] -= mean;
    d[r] = observations.values()[r] - mean;
    out.mean_innovation += d[r];
  }
  out.mean_innovation /= static_cast<long double>(m);

  // Lower triangle of S, then its Cholesky factor in place.
  std::vector<long double> s(m * m, 0.0L);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      long double sum = 0.0L;
      for (std::size_t k = 0; k < n; ++k) {
        sum += anomalies[i * n + k] * anomalies[j * n + k];
      }
      s[i * m + j] = sum / static_cast<long double>(n - 1);
    }
    const long double std_dev = observations.components()[i].error_std;
    s[i * m + i] += std_dev * std_dev;
  }
  for (std::size_t j = 0; j < m; ++j) {
    long double* row_j = &s[j * m];
    for (std::size_t k = 0; k < j; ++k) row_j[j] -= row_j[k] * row_j[k];
    row_j[j] = std::sqrt(row_j[j]);
    for (std::size_t i = j + 1; i < m; ++i) {
      long double* row_i = &s[i * m];
      for (std::size_t k = 0; k < j; ++k) row_i[j] -= row_i[k] * row_j[k];
      row_i[j] /= row_j[j];
    }
  }
  // χ² = dᵀ(LLᵀ)⁻¹d = |y|² with L y = d.
  for (std::size_t i = 0; i < m; ++i) {
    long double y = d[i];
    for (std::size_t k = 0; k < i; ++k) y -= s[i * m + k] * d[k];
    d[i] = y / s[i * m + i];
    out.chi2 += d[i] * d[i];
  }
  return out;
}

struct OracleCase {
  const char* name;
  Index nx, ny;
  Index members;
  Index stations;
  bool bilinear;
  double error_std;
  /// < 1: pull every member onto the line through the mean along member
  /// 0's anomaly, keeping this fraction of its off-line spread.
  double off_line_keep;
};

TEST(Innovation, EnsembleSpaceChi2MatchesDenseOracle) {
  // Shapes around the ensemble-space crossover (m below, near and far
  // above N; point and bilinear stations), an ill-conditioned core
  // (N−1)I + ŶᵀR⁻¹Ŷ from tiny R, and a nearly rank-one ensemble.  The
  // tiny-R case keeps m < N: once m > N, S has m−N+1 eigenvalues equal
  // to R, and merely rounding S's diagonal HBHᵀ + R in long double costs
  // ~1e-10 of χ² at σ_o = 1e-5 — the oracle's own error, not the code's.
  // With m < N the long-double oracle holds ~1e-11 there, while the
  // cancelling form dᵀR⁻¹d − (ŶᵀR⁻¹d)ᵀz and a double dense S are both
  // off by more than 1e-9.
  const OracleCase cases[] = {
      {"m<N", 24, 16, 40, 20, false, 0.1, 1.0},
      {"m~N", 24, 16, 20, 20, true, 0.1, 1.0},
      {"m>>N", 40, 24, 16, 600, true, 0.1, 1.0},
      {"tiny R", 24, 16, 40, 20, false, 1e-5, 1.0},
      {"nearly collinear", 24, 16, 20, 60, true, 0.1, 1e-6},
  };
  std::uint64_t seed = 700;
  for (const OracleCase& c : cases) {
    SCOPED_TRACE(c.name);
    const grid::LatLonGrid g(c.nx, c.ny);
    senkf::Rng rng(++seed);
    auto scenario = grid::synthetic_ensemble(g, c.members, rng, 0.5);
    senkf::Rng obs_rng(seed + 100);
    obs::NetworkOptions opt;
    opt.station_count = c.stations;
    opt.bilinear = c.bilinear;
    opt.error_std = c.error_std;
    const auto observations =
        obs::random_network(g, scenario.truth, obs_rng, opt);

    auto& members = scenario.members;
    if (c.off_line_keep < 1.0) {
      std::vector<double> mean(g.size(), 0.0);
      for (const auto& member : members) {
        for (Index i = 0; i < g.size(); ++i) mean[i] += member[i];
      }
      for (double& v : mean) v /= static_cast<double>(members.size());
      std::vector<double> axis(g.size());
      double axis_norm2 = 0.0;
      for (Index i = 0; i < g.size(); ++i) {
        axis[i] = members[0][i] - mean[i];
        axis_norm2 += axis[i] * axis[i];
      }
      for (auto& member : members) {
        double along = 0.0;
        for (Index i = 0; i < g.size(); ++i) {
          along += (member[i] - mean[i]) * axis[i];
        }
        along /= axis_norm2;
        for (Index i = 0; i < g.size(); ++i) {
          const double on_line = along * axis[i];
          const double off_line = member[i] - mean[i] - on_line;
          member[i] = mean[i] + on_line + c.off_line_keep * off_line;
        }
      }
    }

    const InnovationStats stats = innovation_statistics(members, observations);
    const DenseInnovation oracle = dense_innovation(members, observations);
    EXPECT_EQ(stats.observations, c.stations);
    EXPECT_GE(stats.chi2, 0.0);
    const double mean_reference = static_cast<double>(oracle.mean_innovation);
    EXPECT_NEAR(stats.mean_innovation, mean_reference,
                1e-12 * (1.0 + std::abs(mean_reference)));
    const double reference = static_cast<double>(oracle.chi2);
    EXPECT_NEAR(stats.chi2, reference, 1e-10 * reference);
  }
}

TEST(RankHistogram, CountsSumToObservationCount) {
  const World w(5, 12, 90);
  senkf::Rng rng(50);
  const auto counts = rank_histogram(w.scenario.members, w.observations,
                                     rng);
  EXPECT_EQ(counts.size(), 13u);  // N + 1 bins
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
            90u);
}

TEST(RankHistogram, ReliableEnsembleIsRoughlyFlat) {
  // Reliability means the truth is *exchangeable* with the members — a
  // draw from the same distribution, not the ensemble's center.  Build 9
  // equal-law draws, verify draw 0 against the ensemble of draws 1..8:
  // no bin should be wildly off the uniform expectation.
  // Short correlation length relative to the domain, so the 300 stations
  // sample many effectively independent regions (the default 400 km on a
  // small grid is one big correlated blob — a single degree of freedom).
  const grid::LatLonGrid g{48, 32, 50.0, 50.0};
  grid::SyntheticFieldOptions field_opt;
  field_opt.correlation_length_km = 150.0;
  senkf::Rng rng(6);
  const auto scenario = grid::synthetic_ensemble(g, 9, rng, 0.5, field_opt);
  const grid::Field& truth = scenario.members[0];
  const std::vector<grid::Field> ensemble(scenario.members.begin() + 1,
                                          scenario.members.end());
  const auto observations = World::make_obs(g, truth, 600, 300, 0.3);
  senkf::Rng histogram_rng(51);
  const auto counts = rank_histogram(ensemble, observations, histogram_rng);
  const double expected = 300.0 / 9.0;
  for (const std::size_t c : counts) {
    EXPECT_GT(static_cast<double>(c), 0.2 * expected);
    EXPECT_LT(static_cast<double>(c), 3.0 * expected);
  }
  // And the flatness statistic should be far below the collapsed case's.
  EXPECT_LT(histogram_flatness_chi2(counts), 80.0);
}

TEST(RankHistogram, CollapsedEnsembleIsUShaped) {
  // A near-zero-spread ensemble pushes most observations into the two
  // outer bins.
  const World w(7, 8, 300);
  auto collapsed = w.scenario.members;
  for (auto& member : collapsed) collapsed[0] = member;  // self-assign noop
  for (std::size_t k = 1; k < collapsed.size(); ++k) {
    collapsed[k] = collapsed[0];
  }
  senkf::Rng rng(52);
  const auto counts = rank_histogram(collapsed, w.observations, rng);
  const std::size_t outer = counts.front() + counts.back();
  std::size_t inner = 0;
  for (std::size_t b = 1; b + 1 < counts.size(); ++b) inner += counts[b];
  EXPECT_GT(outer, inner);
}

TEST(HistogramFlatness, FlatBeatsSkewed) {
  const std::vector<std::size_t> flat{10, 10, 10, 10};
  const std::vector<std::size_t> skewed{37, 1, 1, 1};
  EXPECT_LT(histogram_flatness_chi2(flat), 1e-12);
  EXPECT_GT(histogram_flatness_chi2(skewed), 10.0);
  EXPECT_THROW(histogram_flatness_chi2({}), senkf::InvalidArgument);
  EXPECT_THROW(histogram_flatness_chi2({0, 0}), senkf::InvalidArgument);
}

TEST(Verification, AssimilationImprovesInnovationFit) {
  // After assimilating a *different* observation set, verifying against
  // held-out observations of the same truth should improve (smaller
  // innovations), while consistency stays in a sane band.
  const World train(8, 16, 120);
  const auto holdout_obs = World::make_obs(train.g, train.scenario.truth,
                                           900, 80, 0.1);
  const auto ys = obs::perturbed_observations(train.observations, 16,
                                              senkf::Rng(901));
  const MemoryEnsembleStore store(train.g, train.scenario.members);
  SenkfConfig config;
  config.n_sdx = 4;
  config.n_sdy = 2;
  config.layers = 2;
  config.n_cg = 2;
  config.analysis.halo = grid::Halo{3, 2};
  const auto analysis = senkf(store, train.observations, ys, config);

  const auto before =
      innovation_statistics(train.scenario.members, holdout_obs);
  const auto after = innovation_statistics(analysis, holdout_obs);
  // Innovations against held-out data shrink in magnitude.
  EXPECT_LT(std::abs(after.mean_innovation) + 1e-9,
            std::abs(before.mean_innovation) + 0.2);
  EXPECT_GT(after.normalized(), 0.0);
}

}  // namespace
}  // namespace senkf::enkf
