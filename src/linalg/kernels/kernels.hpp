// The multi-ISA kernel plane behind the EnKF analysis hot spots.
//
// Following the hmmer `simdvec` layout: every ISA-specific instruction
// lives in exactly one translation unit per ISA (`kernels_scalar.cpp`,
// `kernels_avx2.cpp`, `kernels_avx512.cpp`, `kernels_neon.cpp`, each
// compiled with per-file ISA flags), all instantiating the single generic
// implementation in kernels_impl.hpp over that ISA's vector policy
// (simdvec.hpp).  Callers go through a `KernelTable` of raw-pointer
// kernels resolved once at startup by CPUID (`dispatch.cpp`); the
// Matrix / Vector API above it is unchanged, so every EnKF variant picks
// up the fast kernels with zero call-site churn.
//
// Contract shared by all implementations:
//   * row-major storage with explicit leading dimensions (lda/ldb/ldc);
//   * GEMM/GEMV outputs are *overwritten*, never accumulated into, and
//     must not alias the inputs; potrf/trsm operate in place;
//   * any dimension may be zero (outputs are zero-filled);
//   * for each output element the k-reduction runs in ascending-k order
//     in every implementation, so scalar and SIMD kernels agree to
//     rounding (FMA contraction and lane-split dot reductions are the
//     only divergence — bounded well below the 1e-12 relative tolerance
//     the equivalence tests assert);
//   * padded operands (ld >= padded_stride(n, width), trailing entries
//     zero — see simdvec.hpp) let kernels skip column edge handling; the
//     pad-zero invariant is preserved by every kernel.
#pragma once

#include <cstddef>

#include "linalg/kernels/simdvec.hpp"

namespace senkf::linalg::kernels {

/// One ISA's worth of kernels.  All matrices are row-major.
struct KernelTable {
  const char* name;  ///< "scalar", "avx2", "avx512" or "neon"
  Index width;       ///< vector width in doubles (1, 2, 4 or 8)

  /// C(m×n) = A(m×k) · B(k×n).
  void (*gemm_nn)(Index m, Index n, Index k, const double* a, Index lda,
                  const double* b, Index ldb, double* c, Index ldc);

  /// C(m×n) = Aᵀ · B with A stored k×m (never materializes Aᵀ).
  void (*gemm_tn)(Index m, Index n, Index k, const double* a, Index lda,
                  const double* b, Index ldb, double* c, Index ldc);

  /// C(m×n) = A · Bᵀ with B stored n×k (never materializes Bᵀ).
  void (*gemm_nt)(Index m, Index n, Index k, const double* a, Index lda,
                  const double* b, Index ldb, double* c, Index ldc);

  /// y(m) = A(m×n) · x(n).
  void (*gemv_n)(Index m, Index n, const double* a, Index lda,
                 const double* x, double* y);

  /// y(n) = Aᵀ · x(m) with A stored m×n.
  void (*gemv_t)(Index m, Index n, const double* a, Index lda,
                 const double* x, double* y);

  /// Blocked in-place SPD Cholesky: overwrites the lower triangle of
  /// A(n×n) with L such that A = L·Lᵀ.  Entries above the diagonal are
  /// neither read nor written.  Returns the index of the first
  /// non-positive pivot, or -1 on success.
  std::ptrdiff_t (*potrf)(Index n, double* a, Index lda);

  /// Forward triangular solve: overwrites B(n×nrhs) with X solving
  /// L·X = B, L lower-triangular with non-zero diagonal (not checked —
  /// wrappers validate; a zero diagonal yields inf/nan).
  void (*trsm_lln)(Index n, Index nrhs, const double* l, Index ldl,
                   double* b, Index ldb);

  /// Backward triangular solve: overwrites B(n×nrhs) with X solving
  /// Lᵀ·X = B.
  void (*trsm_llt)(Index n, Index nrhs, const double* l, Index ldl,
                   double* b, Index ldb);

  /// W = `width` small SPD systems A·x = b at once, one per vector lane:
  /// lane l's A(i, j) sits at a[(i·p + j)·W + l] (only the lower
  /// triangle is read; it is overwritten with the Cholesky factor) and
  /// its right-hand side at b[i·W + l] (overwritten with x).  Lanes share
  /// no arithmetic, so a lane's result does not depend on its
  /// neighbours.  Returns the first column with a non-positive pivot in
  /// any lane, or -1 on success.
  std::ptrdiff_t (*potrf_solve_lanes)(Index p, double* a, double* b);

  /// y[0..n) += alpha · x[0..n) (contiguous).
  void (*axpy)(Index n, double alpha, const double* x, double* y);

  /// x[0..n) *= alpha (contiguous).
  void (*scale)(Index n, double alpha, double* x);

  /// Row r of A(m×n, lda) *= d[r] — the R⁻¹ weighting sweep.
  void (*row_scale)(Index m, Index n, const double* d, double* a, Index lda);

  /// Σ x[i]·y[i] over contiguous spans (ascending-i lane-split sum).
  double (*dot)(Index n, const double* x, const double* y);
};

/// Cache-block sizes shared by every implementation.  The j/k blocking
/// bounds the live B panel (kBlockK × kBlockN doubles ≈ 2 MB) while the
/// register tiles keep each C element's k-reduction in a single
/// accumulator per k-block, preserving the ascending-k order contract.
inline constexpr Index kBlockK = 512;
inline constexpr Index kBlockN = 512;

/// Column-panel width of the blocked Cholesky (left-looking dots).
inline constexpr Index kPotrfBlock = 64;

/// The portable reference implementation (always available).
const KernelTable& scalar_kernels();

/// The AVX2+FMA implementation, or nullptr when this binary was built
/// without AVX2 support.  Callers must additionally check
/// `cpu_supports_avx2()` before using it (see dispatch.hpp).
const KernelTable* avx2_kernels();

/// The AVX-512 (F+DQ) implementation, or nullptr when this binary was
/// built without AVX-512 support.  Gate on `cpu_supports_avx512()`.
const KernelTable* avx512_kernels();

/// The NEON (aarch64) implementation, or nullptr on non-ARM builds.
const KernelTable* neon_kernels();

}  // namespace senkf::linalg::kernels
