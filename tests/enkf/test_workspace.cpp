// Workspace-reuse acceptance gate (DESIGN.md §15).
//
// Two kinds of comparison:
//   * bitwise among production paths — extracted vs in-place gathered
//     members, reused workspaces of varying shapes, heap vs pooled arenas
//     and concurrent threads all run the one engine, so their values must
//     agree exactly;
//   * tolerance vs the dense oracle — the reference below is a verbatim
//     copy of the pre-workspace implementation (allocating linalg API,
//     per-call LocalObservations, owning temporaries, a dense H̄ and a
//     dense n̄×n̄ stochastic system).  Production applies H̄ as sparse
//     rows and solves the stochastic update in observation space, as
//     B̂H̄ᵀ(R + H̄B̂H̄ᵀ)⁻¹, so both kinds must match it normwise:
//     max|Xᵃ − Xᵃ_dense| ≤ 1e-9·max|Xᵃ_dense| over the patch, with
//     point and with bilinear stations.  The skip path, and the
//     deterministic transform with point stations of unit weight (each
//     sparse gather is then an exact copy), still match it bit-for-bit.
// Both hold across analysis kinds, inflation settings, arena modes and
// threads.
#include "enkf/local_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "grid/synthetic.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/ops.hpp"
#include "obs/local_obs_cache.hpp"
#include "obs/perturbed.hpp"
#include "owning_analysis.hpp"

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

AnalysisOptions options_for(AnalysisKind kind, double inflation) {
  AnalysisOptions opt;
  opt.kind = kind;
  opt.halo = grid::Halo{2, 1};
  opt.ridge = 1e-6;
  opt.inflation = inflation;
  return opt;
}

// ---------------------------------------------------------------------------
// Reference (the dense oracle): the pre-workspace local analysis, copied
// verbatim (allocating temporaries, per-call localization, dense n̄×n̄
// stochastic system).  Any change here invalidates the gate — do not
// "modernize" it.
// ---------------------------------------------------------------------------

OwningAnalysis reference_project(const linalg::Matrix& xa, grid::Rect target,
                                 grid::Rect expansion,
                                 Index local_observations) {
  OwningAnalysis result;
  result.local_observations = local_observations;
  const Index width = expansion.x.size();
  result.members.reserve(xa.cols());
  for (Index k = 0; k < xa.cols(); ++k) {
    grid::Patch out(target);
    for (Index y = target.y.begin; y < target.y.end; ++y) {
      for (Index x = target.x.begin; x < target.x.end; ++x) {
        const Index local_index =
            (y - expansion.y.begin) * width + (x - expansion.x.begin);
        out.at(x, y) = xa(local_index, k);
      }
    }
    result.members.push_back(std::move(out));
  }
  return result;
}

OwningAnalysis reference_deterministic(const linalg::Matrix& xb,
                                       grid::Rect target,
                                       grid::Rect expansion,
                                       const obs::LocalObservations& local,
                                       const obs::ObservationSet& observations) {
  const Index n_members = xb.cols();
  const double scale = static_cast<double>(n_members - 1);

  const linalg::Vector mean = linalg::ensemble_mean(xb);
  linalg::Matrix anomalies = xb;
  for (Index i = 0; i < xb.rows(); ++i) {
    for (Index k = 0; k < n_members; ++k) anomalies(i, k) -= mean[i];
  }

  const linalg::Matrix y_tilde = linalg::multiply(local.h(), anomalies);
  const linalg::Vector hx_mean = linalg::multiply(local.h(), mean);
  linalg::Vector innovation(local.size());
  for (Index r = 0; r < local.size(); ++r) {
    innovation[r] =
        observations.values()[local.selected()[r]] - hx_mean[r];
  }

  linalg::Vector rinv(local.size());
  for (Index r = 0; r < local.size(); ++r) {
    rinv[r] = 1.0 / local.r_diagonal()[r];
  }
  linalg::Matrix rinv_y = y_tilde;
  linalg::row_scale(rinv, rinv_y);
  linalg::Matrix system = linalg::multiply_at_b(y_tilde, rinv_y);
  for (Index k = 0; k < n_members; ++k) system(k, k) += scale;

  const linalg::SymmetricEigen eig = linalg::symmetric_eigen(system);
  linalg::Matrix v_scaled_inv = eig.vectors;
  linalg::Matrix v_scaled_sqrt = eig.vectors;
  for (Index j = 0; j < n_members; ++j) {
    if (eig.values[j] <= 0.0) {
      throw NumericError("deterministic transform: singular system");
    }
    const double inv = 1.0 / eig.values[j];
    const double inv_sqrt = std::sqrt(inv);
    for (Index i = 0; i < n_members; ++i) {
      v_scaled_inv(i, j) *= inv;
      v_scaled_sqrt(i, j) *= inv_sqrt;
    }
  }
  const linalg::Matrix p_tilde =
      linalg::multiply_a_bt(v_scaled_inv, eig.vectors);
  linalg::Matrix transform =
      linalg::multiply_a_bt(v_scaled_sqrt, eig.vectors);
  linalg::scale(transform, std::sqrt(scale));

  const linalg::Vector rhs = linalg::multiply_at(rinv_y, innovation);
  const linalg::Vector w_mean = linalg::multiply(p_tilde, rhs);

  for (Index i = 0; i < n_members; ++i) {
    for (Index k = 0; k < n_members; ++k) transform(i, k) += w_mean[i];
  }
  linalg::Matrix xa = linalg::multiply(anomalies, transform);
  for (Index i = 0; i < xb.rows(); ++i) {
    for (Index k = 0; k < n_members; ++k) xa(i, k) += mean[i];
  }
  return reference_project(xa, target, expansion, local.size());
}

OwningAnalysis reference_local_analysis(
    const std::vector<grid::Patch>& background, grid::Rect target,
    const obs::ObservationSet& observations, const linalg::Matrix& perturbed,
    const AnalysisOptions& options) {
  const grid::Rect expansion = background.front().rect();
  const Index n_bar = expansion.count();
  const Index n_members = background.size();

  const obs::LocalObservations local(observations, expansion);

  OwningAnalysis result;
  result.local_observations = local.size();
  if (local.empty()) {
    for (const auto& patch : background) {
      result.members.push_back(patch.extract(target));
    }
    return result;
  }

  linalg::Matrix xb(n_bar, n_members);
  for (Index k = 0; k < n_members; ++k) {
    const auto& values = background[k].values();
    for (Index i = 0; i < n_bar; ++i) xb(i, k) = values[i];
  }

  if (options.inflation != 1.0) {
    const linalg::Vector mean = linalg::ensemble_mean(xb);
    for (Index i = 0; i < n_bar; ++i) {
      for (Index k = 0; k < n_members; ++k) {
        xb(i, k) = mean[i] + options.inflation * (xb(i, k) - mean[i]);
      }
    }
  }

  if (options.kind == AnalysisKind::kDeterministicTransform) {
    return reference_deterministic(xb, target, expansion, local,
                                   observations);
  }

  const linalg::Matrix anomalies = linalg::ensemble_anomalies(xb);
  const linalg::ModifiedCholesky binv_factors =
      // The predecessor sets: those of the production oracle (the one
      // predecessor interface), the same sets in the same order.
      linalg::estimate_inverse_covariance(
          anomalies, ExpansionPredecessorOracle(expansion, options.halo),
          options.ridge);
  linalg::Matrix system = binv_factors.inverse_covariance();

  const linalg::Matrix& h = local.h();
  const linalg::Vector& r_diag = local.r_diagonal();
  const Index m_bar = local.size();
  linalg::Vector rinv(m_bar);
  for (Index row = 0; row < m_bar; ++row) rinv[row] = 1.0 / r_diag[row];
  linalg::Matrix rinv_h = h;
  linalg::row_scale(rinv, rinv_h);
  const linalg::Matrix ht_rinv_h = linalg::multiply_at_b(h, rinv_h);
  linalg::axpy(1.0, ht_rinv_h, system);

  const linalg::Matrix local_ys = local.select_rows(perturbed);
  linalg::Matrix innovations =
      linalg::subtract(local_ys, linalg::multiply(h, xb));
  linalg::row_scale(rinv, innovations);
  const linalg::Matrix rhs = linalg::multiply_at_b(h, innovations);

  const linalg::Matrix delta = linalg::solve_spd(system, rhs);
  linalg::axpy(1.0, delta, xb);

  return reference_project(xb, target, expansion, local.size());
}

// ---------------------------------------------------------------------------

void expect_identical(const OwningAnalysis& got, const OwningAnalysis& want) {
  ASSERT_EQ(got.members.size(), want.members.size());
  EXPECT_EQ(got.local_observations, want.local_observations);
  for (Index k = 0; k < got.members.size(); ++k) {
    ASSERT_TRUE(got.members[k].rect() == want.members[k].rect());
    EXPECT_EQ(got.members[k].values(), want.members[k].values())
        << "member " << k << " differs bitwise";
  }
}

// The dense path itself moves by ~4e-11 normwise between kernel tables;
// elementwise relative error is meaningless on analysis values near 0.
constexpr double kOracleTolerance = 1e-9;

void expect_matches_oracle(const OwningAnalysis& got,
                           const OwningAnalysis& oracle) {
  ASSERT_EQ(got.members.size(), oracle.members.size());
  EXPECT_EQ(got.local_observations, oracle.local_observations);
  double diff = 0.0;
  double scale = 0.0;
  for (Index k = 0; k < got.members.size(); ++k) {
    ASSERT_TRUE(got.members[k].rect() == oracle.members[k].rect());
    const auto& g = got.members[k].values();
    const auto& w = oracle.members[k].values();
    for (Index i = 0; i < w.size(); ++i) {
      diff = std::max(diff, std::abs(g[i] - w[i]));
      scale = std::max(scale, std::abs(w[i]));
    }
  }
  EXPECT_LE(diff, kOracleTolerance * scale)
      << "normwise error " << diff / scale << " vs the dense oracle";
}

// A mix of rects of different shapes (so a reused workspace grows, then
// serves smaller patches from the same chunks) with a repeat at the end.
std::vector<grid::Rect> varied_rects() {
  return {
      grid::Rect{{0, 6}, {0, 6}},  grid::Rect{{0, 16}, {0, 12}},
      grid::Rect{{4, 12}, {2, 10}}, grid::Rect{{10, 16}, {6, 12}},
      grid::Rect{{0, 6}, {0, 6}},
  };
}

class Workspace : public ::testing::Test {
 protected:
  void SetUp() override { obs::clear_localization_cache(); }
  void TearDown() override { obs::clear_localization_cache(); }
};

TEST_F(Workspace, StochasticReuseMatchesDenseOracle) {
  // The pooled thread workspace is reused across shapes; a fresh
  // workspace per call must give the same bits.
  const Scenario sc(11);
  for (const double inflation : {1.0, 1.05}) {
    const AnalysisOptions opt =
        options_for(AnalysisKind::kStochasticModifiedCholesky, inflation);
    for (const grid::Rect rect : varied_rects()) {
      const auto background = sc.patches(rect);
      const auto oracle = reference_local_analysis(background, rect,
                                                   sc.observations, sc.ys,
                                                   opt);
      const auto got =
          owning_analysis(background, rect, sc.observations, sc.ys, opt);
      expect_matches_oracle(got, oracle);

      LocalAnalysisWorkspace fresh;
      const std::vector<grid::PatchView> views(background.begin(),
                                               background.end());
      expect_identical(owning_copy(local_analysis_scratch(
                           views, rect, rect, sc.observations, sc.ys, opt,
                           fresh)),
                       got);
    }
  }
}

TEST_F(Workspace, DeterministicReuseMatchesSeedBitwise) {
  const Scenario sc(12);
  for (const double inflation : {1.0, 1.05}) {
    const AnalysisOptions opt =
        options_for(AnalysisKind::kDeterministicTransform, inflation);
    for (const grid::Rect rect : varied_rects()) {
      const auto background = sc.patches(rect);
      const auto want = reference_local_analysis(background, rect,
                                                 sc.observations, sc.ys, opt);
      const auto got =
          owning_analysis(background, rect, sc.observations, sc.ys, opt);
      expect_identical(got, want);
    }
  }
}

TEST_F(Workspace, BilinearStationsMatchDenseOracle) {
  // Both end-to-end workloads observe through bilinear stations.  The
  // sparse gather, scatter and band outer products round differently
  // from the oracle's dense products there, so both kinds hold the
  // normwise bound.
  const Scenario sc(17, 8, 40, /*bilinear=*/true);
  for (const AnalysisKind kind : {AnalysisKind::kStochasticModifiedCholesky,
                                  AnalysisKind::kDeterministicTransform}) {
    for (const double inflation : {1.0, 1.05}) {
      const AnalysisOptions opt = options_for(kind, inflation);
      Index observed = 0;
      for (const grid::Rect rect : varied_rects()) {
        const auto background = sc.patches(rect);
        const auto oracle = reference_local_analysis(
            background, rect, sc.observations, sc.ys, opt);
        observed += oracle.local_observations;
        expect_matches_oracle(
            owning_analysis(background, rect, sc.observations, sc.ys, opt),
            oracle);
      }
      EXPECT_GT(observed, 0u);
    }
  }
}

TEST_F(Workspace, ScratchViewsGatherInPlaceFromLargerRects) {
  // Members stay on the full grid; the engine gathers each expansion
  // window in place (the serial, P-EnKF and L-EnKF path) — identical to
  // the analysis of patches extracted onto the expansion.
  const Scenario sc(13);
  const grid::Rect full = sc.g.bounds();
  std::vector<grid::PatchView> members;
  std::vector<grid::Patch> owning;
  for (const auto& m : sc.ensemble.members) owning.push_back(m.extract(full));
  for (const auto& p : owning) members.push_back(p);

  LocalAnalysisWorkspace ws;
  for (const AnalysisKind kind : {AnalysisKind::kStochasticModifiedCholesky,
                                  AnalysisKind::kDeterministicTransform}) {
    const AnalysisOptions opt = options_for(kind, 1.02);
    const grid::Rect expansion{{2, 14}, {1, 11}};
    const grid::Rect target{{4, 12}, {3, 9}};
    const auto oracle = reference_local_analysis(
        sc.patches(expansion), target, sc.observations, sc.ys, opt);
    const auto want = owning_analysis(sc.patches(expansion), target,
                                      sc.observations, sc.ys, opt);
    const AnalysisView got = local_analysis_scratch(
        members, expansion, target, sc.observations, sc.ys, opt, ws);
    expect_identical(owning_copy(got), want);
    if (kind == AnalysisKind::kDeterministicTransform) {
      expect_identical(want, oracle);
    } else {
      expect_matches_oracle(want, oracle);
    }
  }
}

TEST_F(Workspace, HeapAndPooledArenaModesAgree) {
  const Scenario sc(15);
  const AnalysisOptions opt =
      options_for(AnalysisKind::kStochasticModifiedCholesky, 1.0);
  LocalAnalysisWorkspace pooled(support::Arena::Mode::kPooled);
  LocalAnalysisWorkspace heap(support::Arena::Mode::kHeap);
  for (const grid::Rect rect : varied_rects()) {
    const auto background = sc.patches(rect);
    std::vector<grid::PatchView> views(background.begin(), background.end());
    const AnalysisView a = local_analysis_scratch(
        views, rect, rect, sc.observations, sc.ys, opt, pooled);
    const AnalysisView b = local_analysis_scratch(
        views, rect, rect, sc.observations, sc.ys, opt, heap);
    ASSERT_EQ(a.members.size(), b.members.size());
    for (Index k = 0; k < a.members.size(); ++k) {
      const std::span<const double> av = a.members[k].values();
      const std::span<const double> bv = b.members[k].values();
      EXPECT_EQ(std::vector<double>(av.begin(), av.end()),
                std::vector<double>(bv.begin(), bv.end()));
    }
  }
}

TEST_F(Workspace, ConcurrentThreadWorkspacesMatchOneThread) {
  const Scenario sc(16);
  const AnalysisOptions opt =
      options_for(AnalysisKind::kStochasticModifiedCholesky, 1.03);
  const auto rects = varied_rects();

  std::vector<OwningAnalysis> want(rects.size());
  for (std::size_t i = 0; i < rects.size(); ++i) {
    want[i] = owning_analysis(sc.patches(rects[i]), rects[i],
                              sc.observations, sc.ys, opt);
    expect_matches_oracle(
        want[i], reference_local_analysis(sc.patches(rects[i]), rects[i],
                                          sc.observations, sc.ys, opt));
  }

  // 4 threads, each running every rect on its own pooled workspace —
  // concurrent leases, concurrent localization-cache lookups.
  constexpr int kThreads = 4;
  std::vector<std::vector<OwningAnalysis>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].resize(rects.size());
      for (std::size_t i = 0; i < rects.size(); ++i) {
        got[t][i] = owning_analysis(sc.patches(rects[i]), rects[i],
                                    sc.observations, sc.ys, opt);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < rects.size(); ++i) {
      expect_identical(got[t][i], want[i]);
    }
  }
}

}  // namespace
}  // namespace senkf::enkf
