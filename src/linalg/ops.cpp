#include "linalg/ops.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels/dispatch.hpp"

namespace senkf::linalg {

namespace {
void require_same_shape(const Matrix& a, const Matrix& b, const char* who) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw ShapeError(std::string(who) + ": shape mismatch");
  }
}
void require_same_size(const Vector& a, const Vector& b, const char* who) {
  if (a.size() != b.size()) {
    throw ShapeError(std::string(who) + ": length mismatch");
  }
}
}  // namespace

// The dense products route through the blocked micro-kernels selected at
// startup (linalg/kernels/dispatch.hpp).  No zero-skip branches here: they
// block vectorization and make the FP summation order data-dependent;
// sparsity is exploited only where the structure is explicit
// (sparse_lower.cpp).  Leading dimensions come from Matrix::stride(), so
// padded operands take the full-width SIMD path and compact ones fall
// back to scalar remainder loops with identical results.

void multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.rows()) throw ShapeError("multiply: inner dim mismatch");
  SENKF_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
                "multiply_into: output shape mismatch");
  kernels::active_kernels().gemm_nn(a.rows(), b.cols(), a.cols(), a.data(),
                                    a.stride(), b.data(), b.stride(),
                                    c.data(), c.stride());
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw ShapeError("multiply: inner dim mismatch");
  Matrix c(a.rows(), b.cols());
  multiply_into(a, b, c);
  return c;
}

void multiply_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows()) {
    throw ShapeError("multiply_at_b: inner dim mismatch");
  }
  SENKF_REQUIRE(c.rows() == a.cols() && c.cols() == b.cols(),
                "multiply_at_b_into: output shape mismatch");
  kernels::active_kernels().gemm_tn(a.cols(), b.cols(), a.rows(), a.data(),
                                    a.stride(), b.data(), b.stride(),
                                    c.data(), c.stride());
}

Matrix multiply_at_b(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw ShapeError("multiply_at_b: inner dim mismatch");
  }
  Matrix c(a.cols(), b.cols());
  multiply_at_b_into(a, b, c);
  return c;
}

void multiply_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.cols()) {
    throw ShapeError("multiply_a_bt: inner dim mismatch");
  }
  SENKF_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(),
                "multiply_a_bt_into: output shape mismatch");
  kernels::active_kernels().gemm_nt(a.rows(), b.rows(), a.cols(), a.data(),
                                    a.stride(), b.data(), b.stride(),
                                    c.data(), c.stride());
}

Matrix multiply_a_bt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    throw ShapeError("multiply_a_bt: inner dim mismatch");
  }
  Matrix c(a.rows(), b.rows());
  multiply_a_bt_into(a, b, c);
  return c;
}

void multiply_into(const Matrix& a, const Vector& x, Vector& y) {
  if (a.cols() != x.size()) throw ShapeError("multiply: Ax dim mismatch");
  SENKF_REQUIRE(y.size() == a.rows(), "multiply_into: output size mismatch");
  kernels::active_kernels().gemv_n(a.rows(), a.cols(), a.data(), a.stride(),
                                   x.data(), y.data());
}

Vector multiply(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size()) throw ShapeError("multiply: Ax dim mismatch");
  Vector y(a.rows());
  multiply_into(a, x, y);
  return y;
}

void multiply_at_into(const Matrix& a, const Vector& x, Vector& y) {
  if (a.rows() != x.size()) throw ShapeError("multiply_at: dim mismatch");
  SENKF_REQUIRE(y.size() == a.cols(),
                "multiply_at_into: output size mismatch");
  kernels::active_kernels().gemv_t(a.rows(), a.cols(), a.data(), a.stride(),
                                   x.data(), y.data());
}

Vector multiply_at(const Matrix& a, const Vector& x) {
  if (a.rows() != x.size()) throw ShapeError("multiply_at: dim mismatch");
  Vector y(a.cols());
  multiply_at_into(a, x, y);
  return y;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

void axpy(double alpha, const Matrix& b, Matrix& a) {
  require_same_shape(a, b, "axpy");
  const auto& table = kernels::active_kernels();
  if (a.stride() == b.stride()) {
    // Same layout: one flat sweep, pad included (both pads are zero, so
    // a_pad += alpha·0 keeps the pad-zero invariant).
    table.axpy(a.rows() * a.stride(), alpha, b.data(), a.data());
    return;
  }
  for (Index i = 0; i < a.rows(); ++i) {
    table.axpy(a.cols(), alpha, b.row(i).data(), a.row(i).data());
  }
}

void axpy(double alpha, const Vector& b, Vector& a) {
  require_same_size(a, b, "axpy");
  kernels::active_kernels().axpy(a.size(), alpha, b.data(), a.data());
}

void scale(Matrix& a, double alpha) {
  // Flat sweep including the pad: alpha·0 = 0 preserves the invariant.
  kernels::active_kernels().scale(a.rows() * a.stride(), alpha, a.data());
}

void scale(Vector& a, double alpha) {
  kernels::active_kernels().scale(a.size(), alpha, a.data());
}

void row_scale(const Vector& d, Matrix& a) {
  if (d.size() != a.rows()) throw ShapeError("row_scale: length mismatch");
  kernels::active_kernels().row_scale(a.rows(), a.cols(), d.data(), a.data(),
                                      a.stride());
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "subtract");
  Matrix c = a;
  axpy(-1.0, b, c);
  return c;
}

Vector subtract(const Vector& a, const Vector& b) {
  require_same_size(a, b, "subtract");
  Vector c = a;
  axpy(-1.0, b, c);
  return c;
}

Matrix add(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "add");
  Matrix c = a;
  axpy(1.0, b, c);
  return c;
}

Vector add(const Vector& a, const Vector& b) {
  require_same_size(a, b, "add");
  Vector c = a;
  axpy(1.0, b, c);
  return c;
}

double dot(const Vector& a, const Vector& b) {
  require_same_size(a, b, "dot");
  return kernels::active_kernels().dot(a.size(), a.data(), b.data());
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

double norm_frobenius(const Matrix& a) {
  const auto& table = kernels::active_kernels();
  double sum = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i).data();
    sum += table.dot(a.cols(), row, row);
  }
  return std::sqrt(sum);
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "max_abs_diff");
  double worst = 0.0;
  for (Index i = 0; i < a.rows(); ++i) {
    const double* ap = a.row(i).data();
    const double* bp = b.row(i).data();
    for (Index j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::abs(ap[j] - bp[j]));
    }
  }
  return worst;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  require_same_size(a, b, "max_abs_diff");
  double worst = 0.0;
  for (Index i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

bool is_symmetric(const Matrix& a, double tol) {
  if (!a.square()) return false;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i + 1; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - a(j, i)) > tol) return false;
    }
  }
  return true;
}

}  // namespace senkf::linalg
