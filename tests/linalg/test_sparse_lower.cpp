#include "linalg/sparse_lower.hpp"

#include <gtest/gtest.h>

#include "linalg/covariance.hpp"
#include "linalg/modified_cholesky.hpp"
#include "linalg/ops.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

Matrix banded_unit_lower(Index n, Index band, Rng& rng) {
  Matrix l = Matrix::identity(n);
  for (Index i = 0; i < n; ++i) {
    const Index first = i > band ? i - band : 0;
    for (Index j = first; j < i; ++j) l(i, j) = rng.normal();
  }
  return l;
}

TEST(SparseUnitLower, RoundTripsDense) {
  Rng rng(1);
  const Matrix l = banded_unit_lower(12, 3, rng);
  const auto sparse = SparseUnitLower::from_dense(l);
  EXPECT_EQ(sparse.to_dense(), l);
  EXPECT_EQ(sparse.dim(), 12u);
}

TEST(SparseUnitLower, MultiplyMatchesDense) {
  Rng rng(2);
  const Matrix l = banded_unit_lower(20, 4, rng);
  const auto sparse = SparseUnitLower::from_dense(l);
  Vector x(20);
  for (auto& v : x) v = rng.normal();
  EXPECT_LT(max_abs_diff(sparse.multiply(x), multiply(l, x)), 1e-13);
  EXPECT_LT(max_abs_diff(sparse.multiply_transpose(x), multiply_at(l, x)),
            1e-13);
}

TEST(SparseUnitLower, SweepsSolveAgainstTheDenseFactor) {
  // L⁻¹X and L⁻ᵀX by the row sweeps: multiplying back by the dense L
  // (resp. Lᵀ) must return X, for k = 1 and for widths around a vector.
  Rng rng(4);
  const Matrix l = banded_unit_lower(40, 6, rng);
  const auto sparse = SparseUnitLower::from_dense(l);
  for (const Index k : {Index{1}, Index{7}, Index{8}, Index{9}, Index{28}}) {
    Matrix x(40, k);
    for (Index i = 0; i < 40; ++i) {
      for (Index j = 0; j < k; ++j) x(i, j) = rng.normal();
    }
    Matrix forward = x;
    sparse.solve_in_place(forward);
    EXPECT_LT(max_abs_diff(multiply(l, forward), x), 1e-10) << "k=" << k;
    Matrix backward = x;
    sparse.solve_transpose_in_place(backward);
    EXPECT_LT(max_abs_diff(multiply_at_b(l, backward), x), 1e-10)
        << "k=" << k;
  }
}

TEST(SparseUnitLower, NonzeroCountMatchesBand) {
  Rng rng(3);
  const Index n = 30, band = 2;
  const auto sparse =
      SparseUnitLower::from_dense(banded_unit_lower(n, band, rng));
  // Rows 0,1 have 0,1 entries; the rest `band`.
  EXPECT_EQ(sparse.nonzeros(), 0u + 1u + (n - band) * band +
                                   (band > 2 ? 0u : 0u));
}

TEST(SparseUnitLower, DropToleranceSparsifies) {
  Matrix l = Matrix::identity(4);
  l(1, 0) = 1e-14;
  l(2, 0) = 0.5;
  l(3, 2) = -1e-13;
  const auto exact = SparseUnitLower::from_dense(l, 0.0);
  const auto dropped = SparseUnitLower::from_dense(l, 1e-12);
  EXPECT_EQ(exact.nonzeros(), 3u);
  EXPECT_EQ(dropped.nonzeros(), 1u);
}

TEST(SparseUnitLower, RejectsBadDiagonal) {
  Matrix l = Matrix::identity(3);
  l(1, 1) = 2.0;
  EXPECT_THROW(SparseUnitLower::from_dense(l), InvalidArgument);
  EXPECT_THROW(SparseUnitLower::from_dense(Matrix(2, 3)), InvalidArgument);
}

TEST(SparseUnitLower, ScratchViewsCallerStorageAndCopiesOwn) {
  // L = [1; 0.5 1; 0 -2 1] in CSR over caller arrays.
  const std::vector<Index> row_start{0, 0, 1, 2};
  const std::vector<Index> columns{0, 1};
  const std::vector<double> values{0.5, -2.0};
  const auto view = SparseUnitLower::scratch(row_start, columns, values);
  EXPECT_TRUE(view.is_scratch());
  EXPECT_EQ(view.dim(), 3u);
  EXPECT_EQ(view.nonzeros(), 2u);
  EXPECT_EQ(view.row_columns(2)[0], 1u);
  EXPECT_EQ(view.row_values(1)[0], 0.5);
  Matrix dense = Matrix::identity(3);
  dense(1, 0) = 0.5;
  dense(2, 1) = -2.0;
  EXPECT_EQ(view.to_dense(), dense);

  const SparseUnitLower copy = view;  // deep, owning
  EXPECT_FALSE(copy.is_scratch());
  EXPECT_EQ(copy.to_dense(), dense);
  EXPECT_NE(copy.row_values(1).data(), values.data() + 0);
  EXPECT_THROW(SparseUnitLower::scratch(row_start, columns, {}),
               InvalidArgument);
}

TEST(SparseModifiedCholesky, ApplyMatchesDenseFactors) {
  // Estimate B̂⁻¹ on a banded problem; the compressed apply must match
  // Lᵀ D⁻¹ L x formed from the densified factor.
  Rng rng(4);
  const Index n = 40, members = 12;
  Matrix ensemble(n, members);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < members; ++k) ensemble(i, k) = rng.normal();
  }
  const auto factors = estimate_inverse_covariance(
      ensemble_anomalies(ensemble), BandedPredecessors(4), 1e-6);
  const Matrix l = factors.l.to_dense();

  Vector x(n);
  for (auto& v : x) v = rng.normal();
  Vector t = multiply(l, x);
  for (Index i = 0; i < n; ++i) t[i] /= factors.d[i];
  EXPECT_LT(max_abs_diff(factors.apply_inverse(x), multiply_at(l, t)),
            1e-11);
}

TEST(SparseModifiedCholesky, SavesMemoryOnLocalizedProblems) {
  Rng rng(5);
  const Index n = 200, members = 10;
  Matrix ensemble(n, members);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < members; ++k) ensemble(i, k) = rng.normal();
  }
  const auto factors = estimate_inverse_covariance(
      ensemble_anomalies(ensemble), BandedPredecessors(5), 1e-6);
  const std::size_t dense_bytes = n * n * sizeof(double);
  EXPECT_LT(factors.l.memory_bytes(), dense_bytes / 10);
  EXPECT_FALSE(factors.l.is_scratch());
  EXPECT_EQ(factors.dim(), n);
}

}  // namespace
}  // namespace senkf::linalg
