// simdvec: the shared SIMD vector environment (hmmer `simdvec` discipline).
//
// Everything ISA-independent that vectorized *and* non-vectorized code
// needs — vector widths, padded-stride math, the pad-zero layout
// contract — lives in the top half of this header and is safe to include
// anywhere (matrix.hpp uses it for padded allocation).
//
// The bottom half defines one `...Ops` policy struct per vector ISA, each
// guarded by that ISA's compiler predefines, so the struct only exists in
// translation units compiled with the matching per-file flags
// (kernels_avx2.cpp gets -mavx2 -mfma, kernels_avx512.cpp gets
// -mavx512f -mavx512dq, kernels_neon.cpp compiles it on aarch64 where
// NEON is baseline).  The single generic implementation of every kernel
// (kernels_impl.hpp) is templated over these policies: adding an ISA is
// one Ops struct + one four-line translation unit + one CMake per-file
// flag line — no kernel logic is duplicated.
//
// ## Padded ("striped") layout contract
//
// A row-major operand with logical row width `n` and leading dimension
// `ld` is *padded for width W* when `ld >= padded_stride(n, W)`.  For
// padded operands the kernels drop all column edge handling: they may
// read and write the trailing `padded_stride(n, W) - n` entries of every
// row.  In exchange the caller guarantees those entries are zero on
// entry; every kernel preserves the invariant (pad lanes only ever see
// 0·x + 0 style arithmetic), so padded matrices can flow through
// arbitrarily long kernel chains.  Compact operands (`ld == n`, e.g.
// wire-format views or caller-owned raw buffers) take the remainder-loop
// path instead — same results, slightly more edge code.
#pragma once

#include <cmath>
#include <cstddef>

namespace senkf::linalg::kernels {

using Index = std::size_t;

/// Vector widths in doubles per register, one per supported ISA.
inline constexpr Index kScalarWidth = 1;
inline constexpr Index kNeonWidth = 2;   // 128-bit
inline constexpr Index kAvx2Width = 4;   // 256-bit
inline constexpr Index kAvx512Width = 8; // 512-bit

/// The widest vector any supported ISA uses, in doubles.  Padding to this
/// width is always safe regardless of which table dispatch later picks.
inline constexpr Index kMaxVectorWidth = kAvx512Width;

/// Rounds a logical row width up to a whole number of W-wide vectors.
constexpr Index padded_stride(Index n, Index width) {
  return width <= 1 ? n : (n + width - 1) / width * width;
}

}  // namespace senkf::linalg::kernels

// ---------------------------------------------------------------------------
// Per-ISA vector policy structs.  Only visible where the ISA is enabled.
//
// The interface every Ops struct implements:
//   using vd;                      // one register of kWidth doubles
//   static constexpr Index kWidth;
//   static vd zero();
//   static vd set1(double);
//   static vd loadu(const double*);
//   static void storeu(double*, vd);
//   static vd add/mul(vd, vd);
//   static vd div(vd, vd);
//   static vd sqrt(vd);                  // correctly rounded, per lane
//   static vd fmadd(vd a, vd b, vd c);   //  a*b + c
//   static vd fnmadd(vd a, vd b, vd c);  // -a*b + c
//   static double hsum(vd);              // lane sum (lo-to-hi pairing)
// ---------------------------------------------------------------------------

namespace senkf::linalg::kernels {

/// Portable reference policy: one double per "vector".  The generic
/// kernels instantiated with this are the semantics every SIMD table
/// must match to 1e-12 relative tolerance.
struct ScalarOps {
  using vd = double;
  static constexpr Index kWidth = kScalarWidth;
  static vd zero() { return 0.0; }
  static vd set1(double x) { return x; }
  static vd loadu(const double* p) { return *p; }
  static void storeu(double* p, vd v) { *p = v; }
  static vd add(vd a, vd b) { return a + b; }
  static vd mul(vd a, vd b) { return a * b; }
  static vd div(vd a, vd b) { return a / b; }
  static vd sqrt(vd a) { return std::sqrt(a); }
  static vd fmadd(vd a, vd b, vd c) { return a * b + c; }
  static vd fnmadd(vd a, vd b, vd c) { return c - a * b; }
  static double hsum(vd v) { return v; }
};

}  // namespace senkf::linalg::kernels

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace senkf::linalg::kernels {

struct Avx2Ops {
  using vd = __m256d;
  static constexpr Index kWidth = kAvx2Width;
  static vd zero() { return _mm256_setzero_pd(); }
  static vd set1(double x) { return _mm256_set1_pd(x); }
  static vd loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, vd v) { _mm256_storeu_pd(p, v); }
  static vd add(vd a, vd b) { return _mm256_add_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm256_mul_pd(a, b); }
  static vd div(vd a, vd b) { return _mm256_div_pd(a, b); }
  static vd sqrt(vd a) { return _mm256_sqrt_pd(a); }
  static vd fmadd(vd a, vd b, vd c) { return _mm256_fmadd_pd(a, b, c); }
  static vd fnmadd(vd a, vd b, vd c) { return _mm256_fnmadd_pd(a, b, c); }
  static double hsum(vd v) {
    __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
  }
};

}  // namespace senkf::linalg::kernels

#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace senkf::linalg::kernels {

struct Avx512Ops {
  using vd = __m512d;
  static constexpr Index kWidth = kAvx512Width;
  static vd zero() { return _mm512_setzero_pd(); }
  static vd set1(double x) { return _mm512_set1_pd(x); }
  static vd loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, vd v) { _mm512_storeu_pd(p, v); }
  static vd add(vd a, vd b) { return _mm512_add_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm512_mul_pd(a, b); }
  static vd div(vd a, vd b) { return _mm512_div_pd(a, b); }
  static vd sqrt(vd a) { return _mm512_sqrt_pd(a); }
  static vd fmadd(vd a, vd b, vd c) { return _mm512_fmadd_pd(a, b, c); }
  static vd fnmadd(vd a, vd b, vd c) { return _mm512_fnmadd_pd(a, b, c); }
  static double hsum(vd v) { return _mm512_reduce_add_pd(v); }
};

}  // namespace senkf::linalg::kernels

#endif  // __AVX512F__ && __AVX512DQ__

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace senkf::linalg::kernels {

struct NeonOps {
  using vd = float64x2_t;
  static constexpr Index kWidth = kNeonWidth;
  static vd zero() { return vdupq_n_f64(0.0); }
  static vd set1(double x) { return vdupq_n_f64(x); }
  static vd loadu(const double* p) { return vld1q_f64(p); }
  static void storeu(double* p, vd v) { vst1q_f64(p, v); }
  static vd add(vd a, vd b) { return vaddq_f64(a, b); }
  static vd mul(vd a, vd b) { return vmulq_f64(a, b); }
  static vd div(vd a, vd b) { return vdivq_f64(a, b); }
  static vd sqrt(vd a) { return vsqrtq_f64(a); }
  static vd fmadd(vd a, vd b, vd c) { return vfmaq_f64(c, a, b); }
  static vd fnmadd(vd a, vd b, vd c) { return vfmsq_f64(c, a, b); }
  static double hsum(vd v) {
    return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
  }
};

}  // namespace senkf::linalg::kernels

#endif  // __aarch64__ && __ARM_NEON
