// Basic dense BLAS-like operations on Matrix / Vector.
//
// These are the only kernels the EnKF local analysis needs: GEMM variants,
// matrix-vector products, AXPY-style updates, diagonal row scalings,
// transposes and norms.  The hot paths dispatch to cache-blocked
// micro-kernels with a runtime-selected ISA (linalg/kernels/): once the
// pipeline hides I/O and communication behind the local analysis, these
// FLOPs bound the end-to-end time, so they run as fast as the host allows
// (AVX-512 / AVX2+FMA / NEON when available, portable scalar otherwise;
// override with SENKF_KERNEL).
#pragma once

#include "linalg/matrix.hpp"

namespace senkf::linalg {

/// C = A * B.
Matrix multiply(const Matrix& a, const Matrix& b);

/// C = Aᵀ * B without forming Aᵀ.
Matrix multiply_at_b(const Matrix& a, const Matrix& b);

/// C = A * Bᵀ without forming Bᵀ.
Matrix multiply_a_bt(const Matrix& a, const Matrix& b);

/// y = A * x.
Vector multiply(const Matrix& a, const Vector& x);

/// y = Aᵀ * x without forming Aᵀ.
Vector multiply_at(const Matrix& a, const Vector& x);

/// Allocation-free variants writing into a caller-provided (typically
/// arena-scratch) output of the exact result shape.  The kernels
/// overwrite every logical output entry, so given a pad-zero output
/// buffer (what Matrix::scratch requires anyway) the results are
/// bit-identical to the allocating forms above.  Outputs must not alias
/// the inputs.
void multiply_into(const Matrix& a, const Matrix& b, Matrix& c);
void multiply_at_b_into(const Matrix& a, const Matrix& b, Matrix& c);
void multiply_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c);
void multiply_into(const Matrix& a, const Vector& x, Vector& y);
void multiply_at_into(const Matrix& a, const Vector& x, Vector& y);

/// Returns Aᵀ.
Matrix transpose(const Matrix& a);

/// a += alpha * b (element-wise, matching shapes).
void axpy(double alpha, const Matrix& b, Matrix& a);
void axpy(double alpha, const Vector& b, Vector& a);

/// a *= alpha.
void scale(Matrix& a, double alpha);
void scale(Vector& a, double alpha);

/// Diagonal left-scaling A ← D·A: row i of A is multiplied by d[i].
/// The EnKF analysis uses this for R⁻¹-weighting of observation-space
/// matrices (d holding the reciprocal observation variances).
void row_scale(const Vector& d, Matrix& a);

/// Returns a - b.
Matrix subtract(const Matrix& a, const Matrix& b);
Vector subtract(const Vector& a, const Vector& b);

/// Returns a + b.
Matrix add(const Matrix& a, const Matrix& b);
Vector add(const Vector& a, const Vector& b);

/// Dot product.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& a);

/// Frobenius norm.
double norm_frobenius(const Matrix& a);

/// max |a_ij - b_ij| over matching shapes.
double max_abs_diff(const Matrix& a, const Matrix& b);
double max_abs_diff(const Vector& a, const Vector& b);

/// True if A is symmetric to within `tol`.
bool is_symmetric(const Matrix& a, double tol = 1e-12);

}  // namespace senkf::linalg
