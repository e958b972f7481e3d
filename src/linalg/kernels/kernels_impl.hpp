// Single-source generic implementation of every KernelTable entry,
// templated over a simdvec.hpp vector policy `V` (ScalarOps, Avx2Ops,
// Avx512Ops, NeonOps).  Each per-ISA translation unit includes this
// header and instantiates `make_table<V>()`; no kernel logic exists
// anywhere else, so all ISAs share one algorithm and one FP-ordering
// contract (ascending-k accumulation per output element for the
// broadcast-saxpy products, lane-split sums for the dot-shaped ones).
//
// Padded fast paths: whenever every operand touched along the vectorized
// axis satisfies `ld >= padded_stride(n, V::kWidth)` (pad-zero contract,
// simdvec.hpp), the column loops run in whole vectors with no remainder;
// otherwise a scalar tail handles the last n % kWidth columns.  Both
// paths produce identical logical results — pad lanes only ever combine
// zeros.
//
// This header must be included after simdvec.hpp inside a translation
// unit that enables the target ISA; it is not meant for general use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/kernels/kernels.hpp"

namespace senkf::linalg::kernels::impl {

/// Bound for whole-vector column processing: the padded stride when the
/// leading dimension proves the pad exists, else the last full vector.
template <class V>
constexpr Index vec_bound(Index n, Index min_ld) {
  const Index up = padded_stride(n, V::kWidth);
  return min_ld >= up ? up : n - n % V::kWidth;
}

template <class V>
void zero_rows(Index m, Index cols, double* c, Index ldc) {
  for (Index i = 0; i < m; ++i) std::fill_n(c + i * ldc, cols, 0.0);
}

// --------------------------------------------------------------------------
// GEMM, broadcast-saxpy family (nn / tn share a strided-A driver).
// --------------------------------------------------------------------------

// C[r][0..2W) += Σ_kk A(r, kk) · B(kk, 0..2W) for r = 0..3, with A(r, kk)
// at a[r·ars + kk·aks]; b and c are pre-offset to the tile's column.
template <class V>
void tile4x2(Index k0, Index kend, const double* a, Index ars, Index aks,
             const double* b, Index ldb, double* c, Index ldc) {
  constexpr Index W = V::kWidth;
  typename V::vd c00 = V::loadu(c + 0 * ldc);
  typename V::vd c01 = V::loadu(c + 0 * ldc + W);
  typename V::vd c10 = V::loadu(c + 1 * ldc);
  typename V::vd c11 = V::loadu(c + 1 * ldc + W);
  typename V::vd c20 = V::loadu(c + 2 * ldc);
  typename V::vd c21 = V::loadu(c + 2 * ldc + W);
  typename V::vd c30 = V::loadu(c + 3 * ldc);
  typename V::vd c31 = V::loadu(c + 3 * ldc + W);
  for (Index kk = k0; kk < kend; ++kk) {
    const double* bk = b + kk * ldb;
    const typename V::vd b0 = V::loadu(bk);
    const typename V::vd b1 = V::loadu(bk + W);
    const double* ak = a + kk * aks;
    const typename V::vd a0 = V::set1(ak[0 * ars]);
    c00 = V::fmadd(a0, b0, c00);
    c01 = V::fmadd(a0, b1, c01);
    const typename V::vd a1 = V::set1(ak[1 * ars]);
    c10 = V::fmadd(a1, b0, c10);
    c11 = V::fmadd(a1, b1, c11);
    const typename V::vd a2 = V::set1(ak[2 * ars]);
    c20 = V::fmadd(a2, b0, c20);
    c21 = V::fmadd(a2, b1, c21);
    const typename V::vd a3 = V::set1(ak[3 * ars]);
    c30 = V::fmadd(a3, b0, c30);
    c31 = V::fmadd(a3, b1, c31);
  }
  V::storeu(c + 0 * ldc, c00);
  V::storeu(c + 0 * ldc + W, c01);
  V::storeu(c + 1 * ldc, c10);
  V::storeu(c + 1 * ldc + W, c11);
  V::storeu(c + 2 * ldc, c20);
  V::storeu(c + 2 * ldc + W, c21);
  V::storeu(c + 3 * ldc, c30);
  V::storeu(c + 3 * ldc + W, c31);
}

// Single-row, single-vector edition for the row / column remainders.
template <class V>
void tile1x1(Index k0, Index kend, const double* a, Index aks,
             const double* b, Index ldb, double* c) {
  typename V::vd acc = V::loadu(c);
  for (Index kk = k0; kk < kend; ++kk) {
    acc = V::fmadd(V::set1(a[kk * aks]), V::loadu(b + kk * ldb), acc);
  }
  V::storeu(c, acc);
}

// Shared driver for C = op(A)·B: op selected by A's (row, k) strides —
// (lda, 1) for A as given, (1, lda) for Aᵀ of a k×m matrix.
template <class V>
void gemm_driver(Index m, Index n, Index k, const double* a, Index ars,
                 Index aks, const double* b, Index ldb, double* c,
                 Index ldc) {
  constexpr Index W = V::kWidth;
  // Whole-vector columns need both the B loads and the C stores to stay
  // in bounds past n; pad lanes then accumulate a·0 and stay zero.
  const Index nv = vec_bound<V>(n, std::min(ldb, ldc));
  zero_rows<V>(m, std::max(n, nv), c, ldc);
  for (Index j0 = 0; j0 < n; j0 += kBlockN) {
    const Index jend = std::min(n, j0 + kBlockN);
    const Index jvec = std::min(nv, j0 + kBlockN);
    for (Index k0 = 0; k0 < k; k0 += kBlockK) {
      const Index kend = std::min(k, k0 + kBlockK);
      Index i = 0;
      for (; i + 4 <= m; i += 4) {
        const double* ai = a + i * ars;
        Index j = j0;
        for (; j + 2 * W <= jvec; j += 2 * W) {
          tile4x2<V>(k0, kend, ai, ars, aks, b + j, ldb, c + i * ldc + j,
                     ldc);
        }
        for (; j + W <= jvec; j += W) {
          for (Index r = 0; r < 4; ++r) {
            tile1x1<V>(k0, kend, ai + r * ars, aks, b + j, ldb,
                       c + (i + r) * ldc + j);
          }
        }
        for (; j < jend; ++j) {
          for (Index r = 0; r < 4; ++r) {
            double sum = c[(i + r) * ldc + j];
            for (Index kk = k0; kk < kend; ++kk) {
              sum += ai[r * ars + kk * aks] * b[kk * ldb + j];
            }
            c[(i + r) * ldc + j] = sum;
          }
        }
      }
      for (; i < m; ++i) {
        const double* ai = a + i * ars;
        Index j = j0;
        for (; j + W <= jvec; j += W) {
          tile1x1<V>(k0, kend, ai, aks, b + j, ldb, c + i * ldc + j);
        }
        for (; j < jend; ++j) {
          double sum = c[i * ldc + j];
          for (Index kk = k0; kk < kend; ++kk) {
            sum += ai[kk * aks] * b[kk * ldb + j];
          }
          c[i * ldc + j] = sum;
        }
      }
    }
  }
}

template <class V>
void gemm_nn(Index m, Index n, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  gemm_driver<V>(m, n, k, a, lda, 1, b, ldb, c, ldc);
}

template <class V>
void gemm_tn(Index m, Index n, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  gemm_driver<V>(m, n, k, a, 1, lda, b, ldb, c, ldc);
}

// --------------------------------------------------------------------------
// Dot-shaped family (nt products, gemv, dot).
// --------------------------------------------------------------------------

/// Σ x[i]·y[i] with four striped vector accumulators (FMA latency is
/// 4-5 cycles at ~2/cycle throughput, so fewer chains leave the units
/// idle) plus a scalar tail; the lane/stripe-split deviation from a
/// strict ascending sum is the tolerated cross-ISA divergence.
template <class V>
double dot_span(Index n, const double* x, const double* y) {
  constexpr Index W = V::kWidth;
  typename V::vd acc0 = V::zero();
  typename V::vd acc1 = V::zero();
  typename V::vd acc2 = V::zero();
  typename V::vd acc3 = V::zero();
  Index i = 0;
  for (; i + 4 * W <= n; i += 4 * W) {
    acc0 = V::fmadd(V::loadu(x + i), V::loadu(y + i), acc0);
    acc1 = V::fmadd(V::loadu(x + i + W), V::loadu(y + i + W), acc1);
    acc2 = V::fmadd(V::loadu(x + i + 2 * W), V::loadu(y + i + 2 * W), acc2);
    acc3 = V::fmadd(V::loadu(x + i + 3 * W), V::loadu(y + i + 3 * W), acc3);
  }
  for (; i + W <= n; i += W) {
    acc0 = V::fmadd(V::loadu(x + i), V::loadu(y + i), acc0);
  }
  double sum =
      V::hsum(V::add(V::add(acc0, acc1), V::add(acc2, acc3)));
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

// C = A·Bᵀ with B stored n×k: rows of both operands are contiguous, so
// each element is a straight dot product; four B rows at a time reuse
// each A load.
template <class V>
void gemm_nt(Index m, Index n, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  constexpr Index W = V::kWidth;
  const Index kv = vec_bound<V>(k, std::min(lda, ldb));
  for (Index i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + (j + 0) * ldb;
      const double* b1 = b + (j + 1) * ldb;
      const double* b2 = b + (j + 2) * ldb;
      const double* b3 = b + (j + 3) * ldb;
      typename V::vd acc0 = V::zero();
      typename V::vd acc1 = V::zero();
      typename V::vd acc2 = V::zero();
      typename V::vd acc3 = V::zero();
      Index kk = 0;
      for (; kk + W <= kv; kk += W) {
        const typename V::vd av = V::loadu(ai + kk);
        acc0 = V::fmadd(av, V::loadu(b0 + kk), acc0);
        acc1 = V::fmadd(av, V::loadu(b1 + kk), acc1);
        acc2 = V::fmadd(av, V::loadu(b2 + kk), acc2);
        acc3 = V::fmadd(av, V::loadu(b3 + kk), acc3);
      }
      double s0 = V::hsum(acc0), s1 = V::hsum(acc1);
      double s2 = V::hsum(acc2), s3 = V::hsum(acc3);
      for (; kk < k; ++kk) {
        const double av = ai[kk];
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
      }
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* bj = b + j * ldb;
      typename V::vd acc = V::zero();
      Index kk = 0;
      for (; kk + W <= kv; kk += W) {
        acc = V::fmadd(V::loadu(ai + kk), V::loadu(bj + kk), acc);
      }
      double sum = V::hsum(acc);
      for (; kk < k; ++kk) sum += ai[kk] * bj[kk];
      ci[j] = sum;
    }
  }
}

template <class V>
void gemv_n(Index m, Index n, const double* a, Index lda, const double* x,
            double* y) {
  constexpr Index W = V::kWidth;
  for (Index i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    typename V::vd acc = V::zero();
    Index j = 0;
    for (; j + W <= n; j += W) {
      acc = V::fmadd(V::loadu(ai + j), V::loadu(x + j), acc);
    }
    double sum = V::hsum(acc);
    for (; j < n; ++j) sum += ai[j] * x[j];
    y[i] = sum;
  }
}

template <class V>
void gemv_t(Index m, Index n, const double* a, Index lda, const double* x,
            double* y) {
  constexpr Index W = V::kWidth;
  std::fill_n(y, n, 0.0);
  for (Index i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    const typename V::vd xi = V::set1(x[i]);
    Index j = 0;
    for (; j + W <= n; j += W) {
      V::storeu(y + j, V::fmadd(xi, V::loadu(ai + j), V::loadu(y + j)));
    }
    for (; j < n; ++j) y[j] += ai[j] * x[i];
  }
}

template <class V>
double dot(Index n, const double* x, const double* y) {
  return dot_span<V>(n, x, y);
}

// --------------------------------------------------------------------------
// Blocked SPD Cholesky and triangular solves.
// --------------------------------------------------------------------------

// Four simultaneous dots of one shared row x against four rows y0..y3,
// one accumulator chain per dot so each x load feeds four FMAs (a lone
// dot is load-bound at two loads per FMA, which is what capped the
// potrf panel update).  Accumulation stays dot-shaped — W-lane chains
// plus a scalar tail — inside the tolerance envelope of dot_span.
template <class V>
void dot_span4(Index n, const double* x, const double* y0, const double* y1,
               const double* y2, const double* y3, double* out) {
  constexpr Index W = V::kWidth;
  typename V::vd a0 = V::zero();
  typename V::vd a1 = V::zero();
  typename V::vd a2 = V::zero();
  typename V::vd a3 = V::zero();
  Index i = 0;
  for (; i + W <= n; i += W) {
    const typename V::vd xv = V::loadu(x + i);
    a0 = V::fmadd(xv, V::loadu(y0 + i), a0);
    a1 = V::fmadd(xv, V::loadu(y1 + i), a1);
    a2 = V::fmadd(xv, V::loadu(y2 + i), a2);
    a3 = V::fmadd(xv, V::loadu(y3 + i), a3);
  }
  double s0 = V::hsum(a0);
  double s1 = V::hsum(a1);
  double s2 = V::hsum(a2);
  double s3 = V::hsum(a3);
  for (; i < n; ++i) {
    const double xi = x[i];
    s0 += xi * y0[i];
    s1 += xi * y1[i];
    s2 += xi * y2[i];
    s3 += xi * y3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

// Eight simultaneous dots — four rows of x against two rows of y — so
// every y load feeds four FMAs and every x load two.  Beyond the ILP
// win this quarters the y-row streaming traffic, which is what bounds
// the potrf panel update once the factor outgrows L1.
template <class V>
void dot_tile_4x2(Index n, const double* x0, const double* x1,
                  const double* x2, const double* x3, const double* y0,
                  const double* y1, double* out) {
  constexpr Index W = V::kWidth;
  typename V::vd a00 = V::zero();
  typename V::vd a01 = V::zero();
  typename V::vd a10 = V::zero();
  typename V::vd a11 = V::zero();
  typename V::vd a20 = V::zero();
  typename V::vd a21 = V::zero();
  typename V::vd a30 = V::zero();
  typename V::vd a31 = V::zero();
  Index k = 0;
  for (; k + W <= n; k += W) {
    const typename V::vd yv0 = V::loadu(y0 + k);
    const typename V::vd yv1 = V::loadu(y1 + k);
    typename V::vd xv = V::loadu(x0 + k);
    a00 = V::fmadd(xv, yv0, a00);
    a01 = V::fmadd(xv, yv1, a01);
    xv = V::loadu(x1 + k);
    a10 = V::fmadd(xv, yv0, a10);
    a11 = V::fmadd(xv, yv1, a11);
    xv = V::loadu(x2 + k);
    a20 = V::fmadd(xv, yv0, a20);
    a21 = V::fmadd(xv, yv1, a21);
    xv = V::loadu(x3 + k);
    a30 = V::fmadd(xv, yv0, a30);
    a31 = V::fmadd(xv, yv1, a31);
  }
  double s[8] = {V::hsum(a00), V::hsum(a01), V::hsum(a10), V::hsum(a11),
                 V::hsum(a20), V::hsum(a21), V::hsum(a30), V::hsum(a31)};
  for (; k < n; ++k) {
    s[0] += x0[k] * y0[k];
    s[1] += x0[k] * y1[k];
    s[2] += x1[k] * y0[k];
    s[3] += x1[k] * y1[k];
    s[4] += x2[k] * y0[k];
    s[5] += x2[k] * y1[k];
    s[6] += x3[k] * y0[k];
    s[7] += x3[k] * y1[k];
  }
  for (int t = 0; t < 8; ++t) out[t] = s[t];
}

// Left-looking blocked factorization: for each kPotrfBlock-wide column
// panel, (1) subtract the contribution of all columns left of the panel
// from the panel — dots of already-final L rows, the flop-dominant
// O(n²·j0) part that vectorizes over k — then (2) factor the panel with
// within-panel dots (length < kPotrfBlock).  Only the lower triangle is
// read or written; the first non-positive pivot index is returned, -1 on
// success.
template <class V>
std::ptrdiff_t potrf(Index n, double* a, Index lda) {
  for (Index j0 = 0; j0 < n; j0 += kPotrfBlock) {
    const Index jb = std::min(kPotrfBlock, n - j0);
    // (1) A[i][j] -= L[i, 0:j0) · L[j, 0:j0) for the panel's lower part.
    // Triangle rows inside the diagonal block go column-blocked (four
    // panel columns share each load of L's row i); the full-width rows
    // below it go through 4×2 dot tiles so the panel's rows are
    // streamed a quarter as often.
    if (j0 > 0) {
      double d4[4];
      const Index pend = j0 + jb;
      for (Index i = j0; i < pend; ++i) {
        const double* li = a + i * lda;
        const Index jmax = std::min(i + 1, pend);
        Index j = j0;
        for (; j + 4 <= jmax; j += 4) {
          dot_span4<V>(j0, li, a + j * lda, a + (j + 1) * lda,
                       a + (j + 2) * lda, a + (j + 3) * lda, d4);
          a[i * lda + j] -= d4[0];
          a[i * lda + j + 1] -= d4[1];
          a[i * lda + j + 2] -= d4[2];
          a[i * lda + j + 3] -= d4[3];
        }
        for (; j < jmax; ++j) {
          a[i * lda + j] -= dot_span<V>(j0, li, a + j * lda);
        }
      }
      double d8[8];
      Index i = pend;
      for (; i + 4 <= n; i += 4) {
        const double* li0 = a + (i + 0) * lda;
        const double* li1 = a + (i + 1) * lda;
        const double* li2 = a + (i + 2) * lda;
        const double* li3 = a + (i + 3) * lda;
        Index j = j0;
        for (; j + 2 <= pend; j += 2) {
          dot_tile_4x2<V>(j0, li0, li1, li2, li3, a + j * lda,
                          a + (j + 1) * lda, d8);
          a[(i + 0) * lda + j] -= d8[0];
          a[(i + 0) * lda + j + 1] -= d8[1];
          a[(i + 1) * lda + j] -= d8[2];
          a[(i + 1) * lda + j + 1] -= d8[3];
          a[(i + 2) * lda + j] -= d8[4];
          a[(i + 2) * lda + j + 1] -= d8[5];
          a[(i + 3) * lda + j] -= d8[6];
          a[(i + 3) * lda + j + 1] -= d8[7];
        }
        for (; j < pend; ++j) {
          dot_span4<V>(j0, a + j * lda, li0, li1, li2, li3, d4);
          a[(i + 0) * lda + j] -= d4[0];
          a[(i + 1) * lda + j] -= d4[1];
          a[(i + 2) * lda + j] -= d4[2];
          a[(i + 3) * lda + j] -= d4[3];
        }
      }
      for (; i < n; ++i) {
        const double* li = a + i * lda;
        Index j = j0;
        for (; j + 4 <= pend; j += 4) {
          dot_span4<V>(j0, li, a + j * lda, a + (j + 1) * lda,
                       a + (j + 2) * lda, a + (j + 3) * lda, d4);
          a[i * lda + j] -= d4[0];
          a[i * lda + j + 1] -= d4[1];
          a[i * lda + j + 2] -= d4[2];
          a[i * lda + j + 3] -= d4[3];
        }
        for (; j < pend; ++j) {
          a[i * lda + j] -= dot_span<V>(j0, li, a + j * lda);
        }
      }
    }
    // (2) factor the panel in 4-column groups.  Each group factors its
    // 4×4 diagonal corner in place, then makes ONE contiguous pass over
    // the rows below: the row's four group entries are micro-solved in
    // registers (forward substitution against the corner), stored back
    // scaled, and the row's trailing panel segment takes the rank-4
    // update in the same touch.  Nothing walks a column — the strided
    // per-column divide/update sweeps of a classic right-looking panel
    // cost a cache line per element and throttled the whole factor —
    // and every element accumulates in the identical ascending-column
    // order on every ISA (no horizontal sums).
    constexpr Index W = V::kWidth;
    const Index jend = j0 + jb;
    double cbuf[4][kPotrfBlock];
    for (Index jg = j0; jg < jend; jg += 4) {
      const Index gend = std::min(jg + 4, jend);
      const Index g = gend - jg;
      // (2a) unblocked factor of the g×g corner (rows jg..gend).
      for (Index j = jg; j < gend; ++j) {
        double diag = a[j * lda + j];
        for (Index k = jg; k < j; ++k) diag -= a[j * lda + k] * a[j * lda + k];
        if (!(diag > 0.0)) return static_cast<std::ptrdiff_t>(j);
        const double ljj = std::sqrt(diag);
        a[j * lda + j] = ljj;
        for (Index i = j + 1; i < gend; ++i) {
          double s = a[i * lda + j];
          for (Index k = jg; k < j; ++k) s -= a[i * lda + k] * a[j * lda + k];
          a[i * lda + j] = s / ljj;
        }
      }
      if (gend >= n) continue;
      // Corner multipliers and reciprocal pivots for the row micro-solve
      // (zeros for the unused slots of a partial trailing group, so the
      // four-way FMA below adds exact zeros for them).
      const double* c0 = a + (jg + 0) * lda;
      const double* c1 = a + (jg + std::min<Index>(1, g - 1)) * lda;
      const double* c2 = a + (jg + std::min<Index>(2, g - 1)) * lda;
      const double* c3 = a + (jg + std::min<Index>(3, g - 1)) * lda;
      const double l10 = g > 1 ? c1[jg] : 0.0;
      const double l20 = g > 2 ? c2[jg] : 0.0;
      const double l21 = g > 2 ? c2[jg + 1] : 0.0;
      const double l30 = g > 3 ? c3[jg] : 0.0;
      const double l31 = g > 3 ? c3[jg + 1] : 0.0;
      const double l32 = g > 3 ? c3[jg + 2] : 0.0;
      const double inv0 = 1.0 / c0[jg];
      const double inv1 = g > 1 ? 1.0 / c1[jg + 1] : 0.0;
      const double inv2 = g > 2 ? 1.0 / c2[jg + 2] : 0.0;
      const double inv3 = g > 3 ? 1.0 / c3[jg + 3] : 0.0;
      if (g < 4) {
        for (Index m = g; m < 4; ++m) {
          for (Index r = 0; r < jend - gend; ++r) cbuf[m][r] = 0.0;
        }
      }
      // (2b) single row pass: micro-solve, store, trailing rank-4.
      for (Index i = gend; i < n; ++i) {
        double* ri = a + i * lda;
        const double v0 = ri[jg] * inv0;
        const double v1 = g > 1 ? (ri[jg + 1] - v0 * l10) * inv1 : 0.0;
        const double v2 =
            g > 2 ? (ri[jg + 2] - v0 * l20 - v1 * l21) * inv2 : 0.0;
        const double v3 =
            g > 3 ? (ri[jg + 3] - v0 * l30 - v1 * l31 - v2 * l32) * inv3
                  : 0.0;
        ri[jg] = v0;
        if (g > 1) ri[jg + 1] = v1;
        if (g > 2) ri[jg + 2] = v2;
        if (g > 3) ri[jg + 3] = v3;
        if (i < jend) {
          // Diagonal-block row: its scaled entries are the trailing
          // columns' multiplicands for every later row in this pass.
          cbuf[0][i - gend] = v0;
          cbuf[1][i - gend] = v1;
          cbuf[2][i - gend] = v2;
          cbuf[3][i - gend] = v3;
        }
        const Index len = std::min(i + 1, jend) - gend;
        if (len <= 0) continue;
        double* row = ri + gend;
        const typename V::vd b0 = V::set1(v0);
        const typename V::vd b1 = V::set1(v1);
        const typename V::vd b2 = V::set1(v2);
        const typename V::vd b3 = V::set1(v3);
        Index r = 0;
        for (; r + W <= len; r += W) {
          typename V::vd acc = V::loadu(row + r);
          acc = V::fnmadd(b0, V::loadu(cbuf[0] + r), acc);
          acc = V::fnmadd(b1, V::loadu(cbuf[1] + r), acc);
          acc = V::fnmadd(b2, V::loadu(cbuf[2] + r), acc);
          acc = V::fnmadd(b3, V::loadu(cbuf[3] + r), acc);
          V::storeu(row + r, acc);
        }
        for (; r < len; ++r) {
          double s = row[r];
          s -= v0 * cbuf[0][r];
          s -= v1 * cbuf[1][r];
          s -= v2 * cbuf[2][r];
          s -= v3 * cbuf[3][r];
          row[r] = s;
        }
      }
    }
  }
  return -1;
}

// One solve row in a triangular sweep, register-blocked over the RHS
// columns: accumulators for 4, then 2, then 1 vectors of X's row i stay
// in registers across the whole k reduction (one load and one store per
// element instead of one per k — the in-memory read-modify-write chain
// is what kept the naive form latency-bound).  Per element the order is
// untouched: fnmadd in ascending k, then the divide, on every ISA.
template <class V, class NextRow>
void trsm_row(Index nrhs, Index jv, double* xi, double lii, Index k_begin,
              Index k_end, const double* l_col, Index l_stride,
              NextRow next_row) {
  constexpr Index W = V::kWidth;
  const typename V::vd dv = V::set1(lii);
  Index j = 0;
  for (; j + 4 * W <= jv; j += 4 * W) {
    typename V::vd r0 = V::loadu(xi + j);
    typename V::vd r1 = V::loadu(xi + j + W);
    typename V::vd r2 = V::loadu(xi + j + 2 * W);
    typename V::vd r3 = V::loadu(xi + j + 3 * W);
    for (Index k = k_begin; k < k_end; ++k) {
      const typename V::vd lv = V::set1(l_col[k * l_stride]);
      const double* xk = next_row(k) + j;
      r0 = V::fnmadd(lv, V::loadu(xk), r0);
      r1 = V::fnmadd(lv, V::loadu(xk + W), r1);
      r2 = V::fnmadd(lv, V::loadu(xk + 2 * W), r2);
      r3 = V::fnmadd(lv, V::loadu(xk + 3 * W), r3);
    }
    V::storeu(xi + j, V::div(r0, dv));
    V::storeu(xi + j + W, V::div(r1, dv));
    V::storeu(xi + j + 2 * W, V::div(r2, dv));
    V::storeu(xi + j + 3 * W, V::div(r3, dv));
  }
  for (; j + 2 * W <= jv; j += 2 * W) {
    typename V::vd r0 = V::loadu(xi + j);
    typename V::vd r1 = V::loadu(xi + j + W);
    for (Index k = k_begin; k < k_end; ++k) {
      const typename V::vd lv = V::set1(l_col[k * l_stride]);
      const double* xk = next_row(k) + j;
      r0 = V::fnmadd(lv, V::loadu(xk), r0);
      r1 = V::fnmadd(lv, V::loadu(xk + W), r1);
    }
    V::storeu(xi + j, V::div(r0, dv));
    V::storeu(xi + j + W, V::div(r1, dv));
  }
  for (; j + W <= jv; j += W) {
    typename V::vd r = V::loadu(xi + j);
    for (Index k = k_begin; k < k_end; ++k) {
      r = V::fnmadd(V::set1(l_col[k * l_stride]), V::loadu(next_row(k) + j),
                    r);
    }
    V::storeu(xi + j, V::div(r, dv));
  }
  for (; j < nrhs; ++j) {
    double s = xi[j];
    for (Index k = k_begin; k < k_end; ++k) {
      s -= l_col[k * l_stride] * next_row(k)[j];
    }
    xi[j] = s / lii;
  }
}

// Forward solve L·X = B in place: row i of X is B's row i minus the
// ascending-k combination of the rows above it, divided by L(i,i).  The
// vectorization axis is the RHS columns, so every X element accumulates
// in the exact same ascending-k order on every ISA.
template <class V>
void trsm_lln(Index n, Index nrhs, const double* l, Index ldl, double* b,
              Index ldb) {
  const Index jv = vec_bound<V>(nrhs, ldb);
  for (Index i = 0; i < n; ++i) {
    trsm_row<V>(nrhs, jv, b + i * ldb, l[i * ldl + i], 0, i, l + i * ldl, 1,
                [b, ldb](Index k) { return b + k * ldb; });
  }
}

// Backward solve Lᵀ·X = B in place: rows from the bottom up, inner k
// ascending from i+1 so the reduction order matches across ISAs.
template <class V>
void trsm_llt(Index n, Index nrhs, const double* l, Index ldl, double* b,
              Index ldb) {
  const Index jv = vec_bound<V>(nrhs, ldb);
  for (Index ip = n; ip-- > 0;) {
    trsm_row<V>(nrhs, jv, b + ip * ldb, l[ip * ldl + ip], ip + 1, n,
                l + ip, ldl, [b, ldb](Index k) { return b + k * ldb; });
  }
}

// --------------------------------------------------------------------------
// Batched small SPD solves, one system per vector lane.
// --------------------------------------------------------------------------

// Right-looking Cholesky of W interleaved p×p systems with the forward
// substitution fused into each column step, then back substitution.
// Every operation is lane-wise — no horizontal sum — so each lane runs
// the same operations in the same order on every ISA, whatever its
// neighbours hold.  Lane l's A(i, j) sits at a[(i·p + j)·W + l] (lower
// triangle read, overwritten with L) and its right-hand side at
// b[i·W + l] (overwritten with the solution).  Pivots are inverted once
// per column and applied by multiplication.
template <class V>
std::ptrdiff_t potrf_solve_lanes(Index p, double* a, double* b) {
  constexpr Index W = V::kWidth;
  using vd = typename V::vd;
  const auto at = [a, p](Index i, Index j) { return a + (i * p + j) * W; };
  const vd one = V::set1(1.0);
  for (Index k = 0; k < p; ++k) {
    double* akk = at(k, k);
    for (Index l = 0; l < W; ++l) {
      if (!(akk[l] > 0.0)) return static_cast<std::ptrdiff_t>(k);
    }
    const vd lkk = V::sqrt(V::loadu(akk));
    V::storeu(akk, lkk);
    const vd inv = V::div(one, lkk);
    const vd bk = V::mul(V::loadu(b + k * W), inv);
    V::storeu(b + k * W, bk);
    for (Index i = k + 1; i < p; ++i) {
      const vd lik = V::mul(V::loadu(at(i, k)), inv);
      V::storeu(at(i, k), lik);
      V::storeu(b + i * W, V::fnmadd(lik, bk, V::loadu(b + i * W)));
      double* row = at(i, 0);
      for (Index j = k + 1; j <= i; ++j) {
        V::storeu(row + j * W,
                  V::fnmadd(lik, V::loadu(at(j, k)), V::loadu(row + j * W)));
      }
    }
  }
  for (Index i = p; i-- > 0;) {
    const vd xi = V::div(V::loadu(b + i * W), V::loadu(at(i, i)));
    V::storeu(b + i * W, xi);
    const double* row = at(i, 0);
    for (Index j = 0; j < i; ++j) {
      V::storeu(b + j * W,
                V::fnmadd(V::loadu(row + j * W), xi, V::loadu(b + j * W)));
    }
  }
  return -1;
}

// --------------------------------------------------------------------------
// Innovation / observation-space ops.
// --------------------------------------------------------------------------

template <class V>
void axpy(Index n, double alpha, const double* x, double* y) {
  constexpr Index W = V::kWidth;
  const typename V::vd av = V::set1(alpha);
  Index i = 0;
  for (; i + W <= n; i += W) {
    V::storeu(y + i, V::fmadd(av, V::loadu(x + i), V::loadu(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

template <class V>
void scale(Index n, double alpha, double* x) {
  constexpr Index W = V::kWidth;
  const typename V::vd av = V::set1(alpha);
  Index i = 0;
  for (; i + W <= n; i += W) {
    V::storeu(x + i, V::mul(av, V::loadu(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

template <class V>
void row_scale(Index m, Index n, const double* d, double* a, Index lda) {
  constexpr Index W = V::kWidth;
  const Index jv = vec_bound<V>(n, lda);
  for (Index r = 0; r < m; ++r) {
    double* row = a + r * lda;
    const typename V::vd dv = V::set1(d[r]);
    Index j = 0;
    for (; j + W <= jv; j += W) {
      V::storeu(row + j, V::mul(dv, V::loadu(row + j)));
    }
    for (; j < n; ++j) row[j] *= d[r];
  }
}

/// Fills a KernelTable with this policy's instantiations.
template <class V>
KernelTable make_table(const char* name) {
  return KernelTable{name,
                     V::kWidth,
                     &gemm_nn<V>,
                     &gemm_tn<V>,
                     &gemm_nt<V>,
                     &gemv_n<V>,
                     &gemv_t<V>,
                     &potrf<V>,
                     &trsm_lln<V>,
                     &trsm_llt<V>,
                     &potrf_solve_lanes<V>,
                     &axpy<V>,
                     &scale<V>,
                     &row_scale<V>,
                     &dot<V>};
}

}  // namespace senkf::linalg::kernels::impl
