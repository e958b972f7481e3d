#include "linalg/cholesky.hpp"

#include <cmath>
#include <string>

#include "linalg/kernels/dispatch.hpp"

namespace senkf::linalg {

namespace {

// The standalone triangular solves promise NumericError on a zero
// diagonal; the kernels divide unconditionally (factors from potrf are
// always positive), so check up front.
void require_nonzero_diagonal(const Matrix& l, const char* who) {
  for (Index i = 0; i < l.rows(); ++i) {
    if (l(i, i) == 0.0) {
      throw NumericError(std::string(who) + ": zero diagonal");
    }
  }
}

}  // namespace

CholeskyFactor::CholeskyFactor(const Matrix& a) {
  SENKF_REQUIRE(a.square(), "Cholesky: matrix must be square");
  l_ = Matrix(a.rows(), a.rows(), 0.0);
  cholesky_factor_into(a, l_);
}

void cholesky_factor_into(const Matrix& a, Matrix& l) {
  SENKF_REQUIRE(a.square(), "Cholesky: matrix must be square");
  const Index n = a.rows();
  SENKF_REQUIRE(l.rows() == n && l.cols() == n,
                "cholesky_factor_into: output shape mismatch");
  // Copy the lower triangle, zero the upper, and factor in place with
  // the blocked, ISA-dispatched potrf kernel.
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) l(i, j) = a(i, j);
    for (Index j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  const std::ptrdiff_t pivot =
      kernels::active_kernels().potrf(n, l.data(), l.stride());
  if (pivot >= 0) {
    throw NumericError("Cholesky: matrix is not positive definite (pivot " +
                       std::to_string(pivot) + ")");
  }
}

void cholesky_solve_in_place(const Matrix& l, Vector& x) {
  SENKF_REQUIRE(l.square() && x.size() == l.rows(),
                "cholesky_solve_in_place: length mismatch");
  const auto& table = kernels::active_kernels();
  table.trsm_lln(l.rows(), 1, l.data(), l.stride(), x.data(), 1);
  table.trsm_llt(l.rows(), 1, l.data(), l.stride(), x.data(), 1);
}

void cholesky_solve_in_place(const Matrix& l, Matrix& x) {
  SENKF_REQUIRE(l.square() && x.rows() == l.rows(),
                "cholesky_solve_in_place: row mismatch");
  const auto& table = kernels::active_kernels();
  table.trsm_lln(l.rows(), x.cols(), l.data(), l.stride(), x.data(),
                 x.stride());
  table.trsm_llt(l.rows(), x.cols(), l.data(), l.stride(), x.data(),
                 x.stride());
}

Vector CholeskyFactor::solve(const Vector& b) const {
  SENKF_REQUIRE(b.size() == dim(), "Cholesky::solve: length mismatch");
  Vector x = b;
  cholesky_solve_in_place(l_, x);
  return x;
}

Matrix CholeskyFactor::solve(const Matrix& b) const {
  SENKF_REQUIRE(b.rows() == dim(), "Cholesky::solve: row mismatch");
  Matrix x = b;
  cholesky_solve_in_place(l_, x);
  return x;
}

double CholeskyFactor::log_determinant() const {
  double sum = 0.0;
  for (Index i = 0; i < dim(); ++i) sum += std::log(l_(i, i));
  return 2.0 * sum;
}

Matrix CholeskyFactor::inverse() const {
  return solve(Matrix::identity(dim()));
}

Vector solve_lower(const Matrix& l, const Vector& b) {
  SENKF_REQUIRE(l.square() && l.rows() == b.size(),
                "solve_lower: shape mismatch");
  require_nonzero_diagonal(l, "solve_lower");
  Vector y = b;
  kernels::active_kernels().trsm_lln(l.rows(), 1, l.data(), l.stride(),
                                     y.data(), 1);
  return y;
}

Vector solve_lower_transposed(const Matrix& l, const Vector& y) {
  SENKF_REQUIRE(l.square() && l.rows() == y.size(),
                "solve_lower_transposed: shape mismatch");
  require_nonzero_diagonal(l, "solve_lower_transposed");
  Vector x = y;
  kernels::active_kernels().trsm_llt(l.rows(), 1, l.data(), l.stride(),
                                     x.data(), 1);
  return x;
}

Vector solve_spd(const Matrix& a, const Vector& b) {
  return CholeskyFactor(a).solve(b);
}

Matrix solve_spd(const Matrix& a, const Matrix& b) {
  return CholeskyFactor(a).solve(b);
}

}  // namespace senkf::linalg
