// Reference gate for the modified-Cholesky estimator.
//
// `reference_estimate` below is a verbatim copy of the per-row estimator
// the batched one replaced: for every row it makes p(p+3)/2 length-N dots
// of its own, then factors and solves its p×p regression with
// cholesky_factor_into + cholesky_solve_in_place.  The production
// estimator gathers the same dots from a cross-product band and solves
// the regressions one vector lane per row (potrf_solve_lanes), so it
// rounds differently; it must match the reference on every kernel table
// (ctest reruns this binary under each SENKF_KERNEL value) to
//   |d − d_ref| ≤ 1e-9·|d_ref| per row,  |L − L_ref| ≤ 1e-9·max|L_ref|,
// with L's sparsity pattern identical.  Two cases: the ocean-stoch patch
// through the analysis' ExpansionPredecessorOracle, and a banded
// ordering whose neighbourhoods are larger than the ensemble (p > N), where
// every regression leans on the ridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "enkf/local_analysis.hpp"
#include "grid/synthetic.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/kernels/dispatch.hpp"
#include "linalg/modified_cholesky.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

void reference_estimate(const Matrix& anomalies,
                        const PredecessorOracle& predecessors, double ridge,
                        support::Arena& arena, ModifiedCholesky& out) {
  SENKF_REQUIRE(anomalies.cols() >= 2,
                "modified Cholesky: need at least 2 ensemble members");
  SENKF_REQUIRE(ridge >= 0.0, "modified Cholesky: ridge must be >= 0");
  const Index n = anomalies.rows();
  const Index ens = anomalies.cols();
  const double denom = static_cast<double>(ens - 1);
  SENKF_REQUIRE(out.d.size() == n,
                "estimate_inverse_covariance_scratch: output length mismatch");

  // Size L: one pass over the predecessor sets (their spans die with
  // each rewind), then the CSR arrays go below every later rewind point.
  auto row_start = arena.allocate_span<Index>(n + 1);
  row_start[0] = 0;
  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    const std::span<const Index> pred = predecessors.predecessors(i, arena);
    for (const Index j : pred) {
      SENKF_REQUIRE(j < i, "modified Cholesky: predecessor must precede i");
    }
    row_start[i + 1] = row_start[i] + pred.size();
    arena.rewind(row_marker);
  }
  auto columns = arena.allocate_span<Index>(row_start[n]);
  auto values = arena.allocate_span<double>(row_start[n]);

  // The column sweeps are dots and axpys over ensemble-sized rows, so
  // they ride the dispatched SIMD kernels.
  const auto& table = kernels::active_kernels();
  const support::Arena::Marker outer = arena.mark();
  Vector fitted = Vector::scratch(arena.allocate_span<double>(ens));

  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    const std::span<const Index> pred = predecessors.predecessors(i, arena);
    const Index p = pred.size();
    SENKF_REQUIRE(row_start[i] + p == row_start[i + 1],
                  "modified Cholesky: predecessor sets must be stable");
    const auto xi = anomalies.row(i);

    if (pred.empty()) {
      const double var = table.dot(ens, xi.data(), xi.data());
      out.d[i] = std::max(var / denom, ridge + 1e-12);
      arena.rewind(row_marker);
      continue;
    }

    // Normal equations of the regression x_i ~ x_pred:
    //   (Z Zᵀ + ridge I) beta = Z x_iᵀ, with Z the |pred|×N predecessor rows.
    const Index pstride = Matrix::padded_stride(p);
    auto gram_storage = arena.allocate_span<double>(p * pstride);
    std::fill(gram_storage.begin(), gram_storage.end(), 0.0);
    Matrix gram = Matrix::scratch(gram_storage, p, p, pstride);
    auto lfac_storage = arena.allocate_span<double>(p * pstride);
    std::fill(lfac_storage.begin(), lfac_storage.end(), 0.0);
    Matrix lfac = Matrix::scratch(lfac_storage, p, p, pstride);
    Vector beta = Vector::scratch(arena.allocate_span<double>(p));
    for (Index a = 0; a < p; ++a) {
      const auto za = anomalies.row(pred[a]);
      for (Index b = a; b < p; ++b) {
        const auto zb = anomalies.row(pred[b]);
        const double sum = table.dot(ens, za.data(), zb.data());
        gram(a, b) = sum;
        gram(b, a) = sum;
      }
      gram(a, a) += ridge * denom;
      beta[a] = table.dot(ens, za.data(), xi.data());
    }
    // Factor + in-place solve: the same kernel sequence CholeskyFactor /
    // its solve() run, minus their allocations.
    cholesky_factor_into(gram, lfac);
    cholesky_solve_in_place(lfac, beta);

    // Residual variance and the negated coefficients as row i of L:
    // fitted = Σ_a beta_a · z_a accumulated by axpy, rss = ‖x_i − fitted‖².
    std::fill(fitted.begin(), fitted.end(), 0.0);
    for (Index a = 0; a < p; ++a) {
      table.axpy(ens, beta[a], anomalies.row(pred[a]).data(), fitted.data());
    }
    table.axpy(ens, -1.0, xi.data(), fitted.data());
    const double rss = table.dot(ens, fitted.data(), fitted.data());
    out.d[i] = std::max(rss / denom, ridge + 1e-12);
    for (Index a = 0; a < p; ++a) {
      columns[row_start[i] + a] = pred[a];
      values[row_start[i] + a] = -beta[a];
    }
    arena.rewind(row_marker);
  }
  arena.rewind(outer);
  out.l = SparseUnitLower::scratch(row_start, columns, values);
}

/// Runs the production estimator and the reference on the same inputs
/// and checks the stated bounds.
void expect_matches_reference(const Matrix& anomalies,
                              const PredecessorOracle& oracle, double ridge) {
  support::Arena arena;
  ModifiedCholesky got;
  got.d = Vector(anomalies.rows(), 0.0);
  estimate_inverse_covariance_scratch(anomalies, oracle, ridge, arena, got);
  ModifiedCholesky want;
  want.d = Vector(anomalies.rows(), 0.0);
  reference_estimate(anomalies, oracle, ridge, arena, want);

  double l_scale = 0.0;
  for (Index i = 0; i < want.dim(); ++i) {
    for (const double v : want.l.row_values(i)) {
      l_scale = std::max(l_scale, std::abs(v));
    }
  }
  ASSERT_EQ(got.l.nonzeros(), want.l.nonzeros());
  double d_worst = 0.0, l_worst = 0.0;
  for (Index i = 0; i < want.dim(); ++i) {
    const double d_err = std::abs(got.d[i] - want.d[i]) / std::abs(want.d[i]);
    d_worst = std::max(d_worst, d_err);
    EXPECT_LE(d_err, 1e-9) << "d at row " << i;
    const auto got_cols = got.l.row_columns(i);
    const auto want_cols = want.l.row_columns(i);
    ASSERT_TRUE(std::equal(got_cols.begin(), got_cols.end(),
                           want_cols.begin(), want_cols.end()))
        << "row " << i;
    for (Index a = 0; a < want_cols.size(); ++a) {
      const double l_err =
          std::abs(got.l.row_values(i)[a] - want.l.row_values(i)[a]);
      l_worst = std::max(l_worst, l_err);
      EXPECT_LE(l_err, 1e-9 * l_scale)
          << "L(" << i << ", " << want_cols[a] << ")";
    }
  }
  char worst[64];
  std::snprintf(worst, sizeof worst, "d %.2e, L %.2e", d_worst,
                l_worst / l_scale);
  ::testing::Test::RecordProperty("worst_relative_error", worst);
}

TEST(EstimatorReference, OceanPatchMatchesPerRowEstimator) {
  // The ocean-stoch patch: a 36×16 expansion, N = 16, halo {3,3}
  // (p ≤ 24 predecessors, reach 111), the production ridge.
  const grid::LatLonGrid mesh(36, 16);
  Rng rng(1);
  const grid::SyntheticEnsemble scenario =
      grid::synthetic_ensemble(mesh, 16, rng, 0.5);
  Matrix x(mesh.size(), 16);
  for (Index k = 0; k < 16; ++k) {
    for (Index i = 0; i < mesh.size(); ++i) {
      x(i, k) = scenario.members[k].data()[i];
    }
  }
  const enkf::ExpansionPredecessorOracle oracle(mesh.bounds(),
                                                grid::Halo{3, 3});
  expect_matches_reference(ensemble_anomalies(x), oracle, 1e-6);
}

TEST(EstimatorReference, NeighbourhoodsLargerThanTheEnsembleMatch) {
  // p = 20 predecessors against N = 8 members: every regression past
  // row 7 is rank-deficient without the ridge.
  constexpr Index kRows = 100;
  constexpr Index kMembers = 8;
  Rng rng(5);
  Matrix x(kRows, kMembers);
  for (Index k = 0; k < kMembers; ++k) {
    double prev = rng.normal();
    for (Index i = 0; i < kRows; ++i) {
      prev = 0.8 * prev + 0.6 * rng.normal();
      x(i, k) = prev;
    }
  }
  expect_matches_reference(ensemble_anomalies(x), BandedPredecessors(20),
                           1e-6);
}

}  // namespace
}  // namespace senkf::linalg
