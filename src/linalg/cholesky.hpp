// Cholesky factorization of symmetric positive-definite matrices.
//
// The EnKF local analysis (paper eq. (6)) solves
//   [B̂⁻¹ + Hᵀ R⁻¹ H] z = Hᵀ R⁻¹ d
// whose system matrix is SPD, so Cholesky is the paper's solver of choice
// (§2.3 cites LAPACK Cholesky).  `CholeskyFactor` owns the lower factor L
// with A = L Lᵀ and offers solves, determinant and inverse.
#pragma once

#include "linalg/matrix.hpp"

namespace senkf::linalg {

class CholeskyFactor {
 public:
  /// Factorizes SPD `a` (lower triangle is read; symmetry is assumed).
  /// Throws NumericError if a non-positive pivot is met.
  explicit CholeskyFactor(const Matrix& a);

  const Matrix& lower() const { return l_; }
  Index dim() const { return l_.rows(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A X = B column-wise.
  Matrix solve(const Matrix& b) const;

  /// log(det A) = 2 Σ log L_ii (numerically safe for big matrices).
  double log_determinant() const;

  /// Dense A⁻¹ (prefer solve() when only products are needed).
  Matrix inverse() const;

 private:
  Matrix l_;
};

/// Allocation-free factorization: overwrites pre-shaped n×n `l` with the
/// lower Cholesky factor of `a` (upper triangle of `l` is zeroed).  Same
/// numerics and failure behaviour as the CholeskyFactor constructor.
void cholesky_factor_into(const Matrix& a, Matrix& l);

/// Allocation-free solve against a factor produced by
/// cholesky_factor_into (or CholeskyFactor::lower()): overwrites `x`
/// (holding b on entry) with A⁻¹ b.  Bit-identical to
/// CholeskyFactor::solve on the same factor.
void cholesky_solve_in_place(const Matrix& l, Vector& x);

/// Column-wise form for a matrix of right-hand sides: overwrites `x`
/// (holding B on entry) with A⁻¹ B.  Bit-identical to
/// CholeskyFactor::solve(Matrix) on the same factor.
void cholesky_solve_in_place(const Matrix& l, Matrix& x);

/// Forward substitution: solves L y = b with lower-triangular L.
Vector solve_lower(const Matrix& l, const Vector& b);

/// Backward substitution: solves Lᵀ x = y with lower-triangular L.
Vector solve_lower_transposed(const Matrix& l, const Vector& y);

/// Convenience: solves SPD system A x = b via a one-shot factorization.
Vector solve_spd(const Matrix& a, const Vector& b);

/// Convenience: solves SPD system A X = B via a one-shot factorization.
Matrix solve_spd(const Matrix& a, const Matrix& b);

}  // namespace senkf::linalg
