// Kernel-equivalence suite: every KernelTable entry of every ISA table
// available on the host must agree with the scalar table (and the GEMM
// family additionally with a naive reference, the batched lane solves
// with potrf + trsm on the same table) to 1e-12 relative
// tolerance, over adversarial shapes — zero dimensions, single elements,
// extents straddling the vector width (width−1 / width / width+1 for
// every supported width), the kPotrfBlock boundary and the cache-block
// boundaries — in both the compact (ld == n) and the padded
// (ld == padded_stride(n, width), pad entries zero) layouts.  The ctest
// registration reruns the linalg and integration suites under every
// SENKF_KERNEL value, so the scalar fallback path is exercised even on
// wide-vector hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "linalg/kernels/dispatch.hpp"
#include "linalg/kernels/simdvec.hpp"
#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "support/rng.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::linalg::kernels {
namespace {

constexpr double kRelTol = 1e-12;

/// Every table this binary + CPU can run, scalar first.
std::vector<const KernelTable*> available_tables() {
  std::vector<const KernelTable*> tables{&scalar_kernels()};
  if (avx2_kernels() != nullptr && cpu_supports_avx2()) {
    tables.push_back(avx2_kernels());
  }
  if (avx512_kernels() != nullptr && cpu_supports_avx512()) {
    tables.push_back(avx512_kernels());
  }
  if (neon_kernels() != nullptr && cpu_supports_neon()) {
    tables.push_back(neon_kernels());
  }
  return tables;
}

// Lengths around every supported vector width (1/2/4/8: width−1, width,
// width+1), plus degenerate, register-tile and cache-block stragglers.
const std::vector<Index> kLengths = {0, 1, 2, 3,  4,  5,  7,
                                    8, 9, 17, 64, 65, 257};

struct Shape {
  Index m, n, k;
};

const std::vector<Shape> kShapes = {
    {0, 0, 0},   {0, 5, 3},     {4, 0, 3},    {4, 5, 0},
    {1, 1, 1},   {2, 3, 1},     {3, 2, 5},    {4, 8, 16},
    {5, 9, 17},  {7, 13, 11},   {8, 16, 32},  {12, 40, 40},
    {33, 65, 7}, {40, 120, 40}, {6, 515, 9},  {3, 24, 517},
    {130, 7, 260},
};

/// A row-major buffer with a selectable leading dimension whose pad
/// entries are zero (the layout contract the padded fast paths rely on).
struct Buf {
  Index rows = 0, cols = 0, ld = 0;
  std::vector<double> v;

  Buf(Index r, Index c, Index lead, Rng* rng = nullptr)
      : rows(r), cols(c), ld(lead), v(r * lead, 0.0) {
    if (rng != nullptr) {
      for (Index i = 0; i < rows; ++i) {
        for (Index j = 0; j < cols; ++j) v[i * ld + j] = rng->normal();
      }
    }
  }

  double* data() { return v.data(); }
  const double* data() const { return v.data(); }
  double at(Index i, Index j) const { return v[i * ld + j]; }
};

void expect_close(const Buf& got, const Buf& want, const char* what) {
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.cols, want.cols);
  for (Index i = 0; i < got.rows; ++i) {
    for (Index j = 0; j < got.cols; ++j) {
      const double g = got.at(i, j);
      const double w = want.at(i, j);
      const double scale = std::max({1.0, std::abs(g), std::abs(w)});
      EXPECT_NEAR(g, w, kRelTol * scale)
          << what << " mismatch at (" << i << ", " << j << ") with lds "
          << got.ld << " vs " << want.ld;
    }
  }
}

void expect_scalar_close(double got, double want, const char* what,
                         Index n) {
  const double scale = std::max({1.0, std::abs(got), std::abs(want)});
  EXPECT_NEAR(got, want, kRelTol * scale) << what << " mismatch at n=" << n;
}

/// Leading dimension for layout variant `padded`: the table's padded
/// stride or the compact width.
Index ld_for(const KernelTable& t, Index n, bool padded) {
  return padded ? padded_stride(n, t.width) : n;
}

// --------------------------------------------------------------------- //
// GEMM / GEMV family vs naive reference.
// --------------------------------------------------------------------- //

Buf ref_nn(const Shape& s, const Buf& a, const Buf& b) {
  Buf c(s.m, s.n, s.n);
  for (Index i = 0; i < s.m; ++i)
    for (Index kk = 0; kk < s.k; ++kk)
      for (Index j = 0; j < s.n; ++j)
        c.v[i * s.n + j] += a.at(i, kk) * b.at(kk, j);
  return c;
}

Buf ref_tn(const Shape& s, const Buf& a, const Buf& b) {
  Buf c(s.m, s.n, s.n);
  for (Index kk = 0; kk < s.k; ++kk)
    for (Index i = 0; i < s.m; ++i)
      for (Index j = 0; j < s.n; ++j)
        c.v[i * s.n + j] += a.at(kk, i) * b.at(kk, j);
  return c;
}

Buf ref_nt(const Shape& s, const Buf& a, const Buf& b) {
  Buf c(s.m, s.n, s.n);
  for (Index i = 0; i < s.m; ++i)
    for (Index j = 0; j < s.n; ++j)
      for (Index kk = 0; kk < s.k; ++kk)
        c.v[i * s.n + j] += a.at(i, kk) * b.at(j, kk);
  return c;
}

void check_gemm_family(const KernelTable& table, bool padded) {
  std::uint64_t seed = padded ? 2000 : 1;
  for (const Shape& s : kShapes) {
    Rng rng(seed++);
    {
      Buf a(s.m, s.k, ld_for(table, s.k, padded), &rng);
      Buf b(s.k, s.n, ld_for(table, s.n, padded), &rng);
      Buf c(s.m, s.n, ld_for(table, s.n, padded));
      table.gemm_nn(s.m, s.n, s.k, a.data(), a.ld, b.data(), b.ld, c.data(),
                    c.ld);
      expect_close(c, ref_nn(s, a, b), "gemm_nn");
    }
    {
      Buf a(s.k, s.m, ld_for(table, s.m, padded), &rng);
      Buf b(s.k, s.n, ld_for(table, s.n, padded), &rng);
      Buf c(s.m, s.n, ld_for(table, s.n, padded));
      table.gemm_tn(s.m, s.n, s.k, a.data(), a.ld, b.data(), b.ld, c.data(),
                    c.ld);
      expect_close(c, ref_tn(s, a, b), "gemm_tn");
    }
    {
      Buf a(s.m, s.k, ld_for(table, s.k, padded), &rng);
      Buf b(s.n, s.k, ld_for(table, s.k, padded), &rng);
      Buf c(s.m, s.n, ld_for(table, s.n, padded));
      table.gemm_nt(s.m, s.n, s.k, a.data(), a.ld, b.data(), b.ld, c.data(),
                    c.ld);
      expect_close(c, ref_nt(s, a, b), "gemm_nt");
    }
    {
      Buf a(s.m, s.k, ld_for(table, s.k, padded), &rng);
      std::vector<double> x(std::max(s.m, s.k));
      for (auto& v : x) v = rng.normal();

      std::vector<double> y(s.m, -7.0);
      table.gemv_n(s.m, s.k, a.data(), a.ld, x.data(), y.data());
      for (Index i = 0; i < s.m; ++i) {
        double want = 0.0;
        for (Index kk = 0; kk < s.k; ++kk) want += a.at(i, kk) * x[kk];
        expect_scalar_close(y[i], want, "gemv_n", i);
      }

      std::vector<double> yt(s.k, -7.0);
      table.gemv_t(s.m, s.k, a.data(), a.ld, x.data(), yt.data());
      for (Index kk = 0; kk < s.k; ++kk) {
        double want = 0.0;
        for (Index i = 0; i < s.m; ++i) want += a.at(i, kk) * x[i];
        expect_scalar_close(yt[kk], want, "gemv_t", kk);
      }
    }
  }
}

TEST(Kernels, GemmFamilyMatchesReferenceOnEveryTable) {
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    check_gemm_family(*table, /*padded=*/false);
    check_gemm_family(*table, /*padded=*/true);
  }
}

// --------------------------------------------------------------------- //
// Cholesky + triangular solves vs the scalar table.
// --------------------------------------------------------------------- //

/// A well-conditioned SPD test matrix in a Buf with leading dim `ld`.
Buf make_spd(Index n, Index ld, std::uint64_t seed) {
  Rng rng(seed);
  Buf z(n, n, n, &rng);
  Buf a(n, n, ld);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      double sum = i == j ? static_cast<double>(n) + 1.0 : 0.0;
      for (Index kk = 0; kk < n; ++kk) sum += z.at(i, kk) * z.at(j, kk);
      a.v[i * ld + j] = sum;
    }
  }
  return a;
}

void check_potrf_trsm(const KernelTable& table, const KernelTable& scalar,
                      bool padded) {
  for (const Index n : kLengths) {
    const Index ld = std::max<Index>(ld_for(table, n, padded), 1);
    Buf a = make_spd(n, ld, 31 + n);
    Buf a_ref = make_spd(n, std::max<Index>(n, 1), 31 + n);
    const std::ptrdiff_t info = table.potrf(n, a.data(), a.ld);
    const std::ptrdiff_t info_ref = scalar.potrf(n, a_ref.data(), a_ref.ld);
    ASSERT_EQ(info, -1) << table.name << " potrf failed at n=" << n;
    ASSERT_EQ(info_ref, -1);
    // Compare the lower triangles only (potrf never touches the upper).
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j <= i; ++j) {
        const double g = a.at(i, j);
        const double w = a_ref.at(i, j);
        const double scale = std::max({1.0, std::abs(g), std::abs(w)});
        EXPECT_NEAR(g, w, kRelTol * scale)
            << table.name << " potrf mismatch at (" << i << "," << j
            << ") n=" << n;
      }
    }

    for (const Index nrhs : {Index{1}, Index{5}, Index{8}, Index{17}}) {
      Rng rng(77 + n + nrhs);
      const Index ldb = std::max<Index>(ld_for(table, nrhs, padded), 1);
      Buf b(n, nrhs, ldb, &rng);
      Buf b_ref(n, nrhs, std::max<Index>(nrhs, 1));
      for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < nrhs; ++j) b_ref.v[i * b_ref.ld + j] = b.at(i, j);
      }
      table.trsm_lln(n, nrhs, a.data(), a.ld, b.data(), b.ld);
      scalar.trsm_lln(n, nrhs, a_ref.data(), a_ref.ld, b_ref.data(),
                      b_ref.ld);
      expect_close(b, b_ref, "trsm_lln");
      table.trsm_llt(n, nrhs, a.data(), a.ld, b.data(), b.ld);
      scalar.trsm_llt(n, nrhs, a_ref.data(), a_ref.ld, b_ref.data(),
                      b_ref.ld);
      expect_close(b, b_ref, "trsm_llt");
    }
  }
}

TEST(Kernels, PotrfAndTrsmAgreeWithScalarOnEveryTable) {
  const KernelTable& scalar = scalar_kernels();
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    check_potrf_trsm(*table, scalar, /*padded=*/false);
    check_potrf_trsm(*table, scalar, /*padded=*/true);
  }
}

TEST(Kernels, PotrfReportsFirstBadPivotOnEveryTable) {
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    // Indefinite matrix: factorization must stop at the first
    // non-positive pivot and report its index.
    Buf a = make_spd(9, 9, 5);
    a.v[4 * 9 + 4] = -1e6;  // poison pivot 4
    const std::ptrdiff_t info = table->potrf(9, a.data(), 9);
    EXPECT_EQ(info, 4);
  }
}

// --------------------------------------------------------------------- //
// Batched small SPD solves, one system per vector lane, vs the scalar
// table and vs potrf + trsm on the same table.
// --------------------------------------------------------------------- //

/// `width` interleaved p×p systems: lane l's A(i, j) at
/// a[(i·p + j)·width + l], its right-hand side at b[i·width + l].  The
/// upper triangles hold NaN, which the kernel must never read.
struct Lanes {
  Index p, width;
  std::vector<double> a, b;

  Lanes(Index size, Index lanes)
      : p(size),
        width(lanes),
        a(size * size * lanes, std::numeric_limits<double>::quiet_NaN()),
        b(size * lanes, 0.0) {}

  double& at(Index l, Index i, Index j) { return a[(i * p + j) * width + l]; }
  double& rhs(Index l, Index i) { return b[i * width + l]; }
};

/// Puts make_spd(p_l, ·, seed) and a random right-hand side into lane l,
/// padded to the batch's p with identity rows and a zero right-hand side.
void set_lane(Lanes& lanes, Index l, Index p_l, std::uint64_t seed) {
  const Buf sys = make_spd(p_l, std::max<Index>(p_l, 1), seed);
  Rng rng(seed + 1000);
  for (Index i = 0; i < lanes.p; ++i) {
    for (Index j = 0; j <= i; ++j) {
      lanes.at(l, i, j) = i < p_l ? sys.at(i, j) : (i == j ? 1.0 : 0.0);
    }
    lanes.rhs(l, i) = i < p_l ? rng.normal() : 0.0;
  }
}

const std::vector<Index> kLaneSizes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 24, 33};

TEST(Kernels, PotrfSolveLanesAgreesWithScalarOnEveryTable) {
  const KernelTable& scalar = scalar_kernels();
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (const Index p : kLaneSizes) {
      Lanes lanes(p, table->width);
      for (Index l = 0; l < table->width; ++l) {
        set_lane(lanes, l, p, 500 + 16 * p + l);
      }
      ASSERT_EQ(table->potrf_solve_lanes(p, lanes.a.data(), lanes.b.data()),
                -1);
      for (Index l = 0; l < table->width; ++l) {
        Lanes one(p, 1);
        set_lane(one, 0, p, 500 + 16 * p + l);
        ASSERT_EQ(scalar.potrf_solve_lanes(p, one.a.data(), one.b.data()), -1);
        for (Index i = 0; i < p; ++i) {
          expect_scalar_close(lanes.rhs(l, i), one.rhs(0, i), "solution", p);
          for (Index j = 0; j <= i; ++j) {
            expect_scalar_close(lanes.at(l, i, j), one.at(0, i, j), "factor",
                                p);
          }
        }
      }
    }
  }
}

TEST(Kernels, PotrfSolveLanesMatchesPotrfAndTrsmOnEveryTable) {
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (const Index p : kLaneSizes) {
      Lanes lanes(p, table->width);
      for (Index l = 0; l < table->width; ++l) {
        set_lane(lanes, l, p, 700 + 16 * p + l);
      }
      ASSERT_EQ(table->potrf_solve_lanes(p, lanes.a.data(), lanes.b.data()),
                -1);
      for (Index l = 0; l < table->width; ++l) {
        const Index ld = std::max<Index>(p, 1);
        Buf sys = make_spd(p, ld, 700 + 16 * p + l);
        Buf x(p, 1, 1);
        Rng rng(700 + 16 * p + l + 1000);
        for (Index i = 0; i < p; ++i) x.v[i] = rng.normal();
        ASSERT_EQ(table->potrf(p, sys.data(), ld), -1);
        table->trsm_lln(p, 1, sys.data(), ld, x.data(), 1);
        table->trsm_llt(p, 1, sys.data(), ld, x.data(), 1);
        for (Index i = 0; i < p; ++i) {
          expect_scalar_close(lanes.rhs(l, i), x.v[i], "vs potrf+trsm", p);
        }
      }
    }
  }
}

TEST(Kernels, PotrfSolveLanesPaddedLaneIsBitIdenticalToItsOwnSize) {
  constexpr Index kBatch = 24;
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    const Index width = table->width;
    // Lane l holds a system of size kBatch − 3(l + 1), so every table —
    // the scalar one included — pads at least one lane.
    Lanes padded(kBatch, width);
    for (Index l = 0; l < width; ++l) {
      set_lane(padded, l, kBatch - 3 * (l + 1), 900 + l);
    }
    ASSERT_EQ(table->potrf_solve_lanes(kBatch, padded.a.data(),
                                       padded.b.data()),
              -1);
    for (Index l = 0; l < width; ++l) {
      const Index p_l = kBatch - 3 * (l + 1);
      SCOPED_TRACE("lane " + std::to_string(l) + ", p " + std::to_string(p_l));
      Lanes alone(p_l, width);
      for (Index other = 0; other < width; ++other) {
        set_lane(alone, other, p_l, other == l ? 900 + l : 950 + other);
      }
      ASSERT_EQ(table->potrf_solve_lanes(p_l, alone.a.data(), alone.b.data()),
                -1);
      for (Index i = 0; i < p_l; ++i) {
        EXPECT_EQ(padded.rhs(l, i), alone.rhs(l, i)) << "solution row " << i;
        for (Index j = 0; j <= i; ++j) {
          EXPECT_EQ(padded.at(l, i, j), alone.at(l, i, j))
              << "factor (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(Kernels, PotrfSolveLanesReportsFirstBadPivotOnEveryTable) {
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    Lanes lanes(9, table->width);
    for (Index l = 0; l < table->width; ++l) set_lane(lanes, l, 9, 17 + l);
    lanes.at(table->width - 1, 4, 4) = -1e6;  // poison pivot 4, last lane
    lanes.at(0, 6, 6) = -1e6;                 // a later one in lane 0
    EXPECT_EQ(table->potrf_solve_lanes(9, lanes.a.data(), lanes.b.data()), 4);
  }
}

// --------------------------------------------------------------------- //
// Innovation / elementwise family vs the scalar table.
// --------------------------------------------------------------------- //

void check_elementwise(const KernelTable& table, bool padded) {
  for (const Index n : kLengths) {
    Rng rng(7 + n);
    std::vector<double> x(n), y(n), y_ref;
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
    y_ref = y;
    table.axpy(n, 1.75, x.data(), y.data());
    scalar_kernels().axpy(n, 1.75, x.data(), y_ref.data());
    for (Index i = 0; i < n; ++i) {
      expect_scalar_close(y[i], y_ref[i], "axpy", i);
    }
    table.scale(n, -0.3, y.data());
    scalar_kernels().scale(n, -0.3, y_ref.data());
    for (Index i = 0; i < n; ++i) {
      expect_scalar_close(y[i], y_ref[i], "scale", i);
    }
    expect_scalar_close(table.dot(n, x.data(), y.data()),
                        scalar_kernels().dot(n, x.data(), y_ref.data()),
                        "dot", n);

    // row_scale over an m×n panel.
    const Index m = 5;
    const Index ld = std::max<Index>(ld_for(table, n, padded), 1);
    Buf ys(m, n, ld, &rng);
    std::vector<double> rinv(m);
    for (auto& v : rinv) v = 0.5 + std::abs(rng.normal());

    Buf scaled(m, n, ld);
    Buf scaled_ref(m, n, std::max<Index>(n, 1));
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < n; ++j) {
        scaled.v[i * scaled.ld + j] = ys.at(i, j);
        scaled_ref.v[i * scaled_ref.ld + j] = ys.at(i, j);
      }
    }
    table.row_scale(m, n, rinv.data(), scaled.data(), scaled.ld);
    scalar_kernels().row_scale(m, n, rinv.data(), scaled_ref.data(),
                               scaled_ref.ld);
    expect_close(scaled, scaled_ref, "row_scale");
  }
}

TEST(Kernels, ElementwiseFamilyAgreesWithScalarOnEveryTable) {
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    check_elementwise(*table, /*padded=*/false);
    check_elementwise(*table, /*padded=*/true);
  }
}

// --------------------------------------------------------------------- //
// Layout: padded and compact operands give identical logical results,
// and kernels preserve the pad-zero invariant.
// --------------------------------------------------------------------- //

TEST(Kernels, PaddedAndCompactLayoutsAgreeAndPreservePadZeros) {
  for (const KernelTable* table : available_tables()) {
    SCOPED_TRACE(table->name);
    const Shape s{13, 21, 17};
    Rng rng(99);
    Buf a_pad(s.m, s.k, padded_stride(s.k, table->width), &rng);
    Buf b_pad(s.k, s.n, padded_stride(s.n, table->width), &rng);
    Buf a_cmp(s.m, s.k, s.k);
    Buf b_cmp(s.k, s.n, s.n);
    for (Index i = 0; i < s.m; ++i)
      for (Index j = 0; j < s.k; ++j) a_cmp.v[i * s.k + j] = a_pad.at(i, j);
    for (Index i = 0; i < s.k; ++i)
      for (Index j = 0; j < s.n; ++j) b_cmp.v[i * s.n + j] = b_pad.at(i, j);

    Buf c_pad(s.m, s.n, padded_stride(s.n, table->width));
    Buf c_cmp(s.m, s.n, s.n);
    table->gemm_nn(s.m, s.n, s.k, a_pad.data(), a_pad.ld, b_pad.data(),
                   b_pad.ld, c_pad.data(), c_pad.ld);
    table->gemm_nn(s.m, s.n, s.k, a_cmp.data(), a_cmp.ld, b_cmp.data(),
                   b_cmp.ld, c_cmp.data(), c_cmp.ld);
    expect_close(c_pad, c_cmp, "padded-vs-compact gemm_nn");
    for (Index i = 0; i < s.m; ++i) {
      for (Index j = s.n; j < c_pad.ld; ++j) {
        EXPECT_EQ(c_pad.v[i * c_pad.ld + j], 0.0)
            << "pad entry (" << i << "," << j << ") not preserved";
      }
    }
  }
}

// --------------------------------------------------------------------- //
// Dispatch and accounting.
// --------------------------------------------------------------------- //

TEST(Kernels, DispatchHonoursOverride) {
  EXPECT_STREQ(resolve_kernels("scalar").name, "scalar");
  const bool avx2_usable = avx2_kernels() != nullptr && cpu_supports_avx2();
  const bool avx512_usable =
      avx512_kernels() != nullptr && cpu_supports_avx512();
  const bool neon_usable = neon_kernels() != nullptr && cpu_supports_neon();
  // Explicit requests: the ISA when usable, scalar fallback otherwise.
  EXPECT_STREQ(resolve_kernels("avx2").name,
               avx2_usable ? "avx2" : "scalar");
  EXPECT_STREQ(resolve_kernels("avx512").name,
               avx512_usable ? "avx512" : "scalar");
  EXPECT_STREQ(resolve_kernels("neon").name,
               neon_usable ? "neon" : "scalar");
  // auto / unset: widest available, avx512 > avx2 > neon > scalar.
  const char* widest = avx512_usable ? "avx512"
                       : avx2_usable ? "avx2"
                       : neon_usable ? "neon"
                                     : "scalar";
  EXPECT_STREQ(resolve_kernels(nullptr).name, widest);
  EXPECT_STREQ(resolve_kernels("auto").name, widest);
  EXPECT_THROW(resolve_kernels("sse9"), InvalidArgument);
}

TEST(Kernels, ActiveKernelsMatchEnvironment) {
  // active_kernels() caches the startup decision; whatever SENKF_KERNEL
  // the harness set, it must match a fresh resolution of the same value
  // (the CMake side registers this binary under every value, so on
  // non-AVX-512 runners SENKF_KERNEL=avx512 asserts the scalar fallback).
  const KernelTable& active = active_kernels();
  EXPECT_STREQ(active.name,
               resolve_kernels(std::getenv("SENKF_KERNEL")).name);
}

TEST(Kernels, DispatchIsCountedOncePerProcess) {
  auto& registry = telemetry::Registry::global();
  const KernelTable& active = active_kernels();
  // Repeated lookups (and the pure resolver) must not inflate the
  // counter: exactly one dispatch event per process.
  (void)active_kernels();
  (void)resolve_kernels("scalar");
  std::uint64_t total = 0;
  for (const char* name : {"scalar", "avx2", "avx512", "neon"}) {
    total +=
        registry.counter_value(std::string("kernels.dispatch.") + name);
  }
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(registry.counter_value(std::string("kernels.dispatch.") +
                                   active.name),
            1u);
  // The run report picks the resolved ISA up from this gauge.
  EXPECT_EQ(registry.gauge_value("kernels.active"),
            static_cast<double>(active.width));
}

TEST(Kernels, OpsLayerRoutesThroughDispatch) {
  // A product big enough to cross a register-tile boundary, checked
  // through the public Matrix API against the naive reference.
  Rng rng(7);
  Matrix a(13, 21), b(21, 18);
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  for (Index i = 0; i < b.rows(); ++i)
    for (Index j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  const Matrix c = multiply(a, b);
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = 0; j < c.cols(); ++j) {
      double want = 0.0;
      for (Index kk = 0; kk < a.cols(); ++kk) want += a(i, kk) * b(kk, j);
      const double scale = std::max(1.0, std::abs(want));
      EXPECT_NEAR(c(i, j), want, kRelTol * scale);
    }
  }
}

}  // namespace
}  // namespace senkf::linalg::kernels
