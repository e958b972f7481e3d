// Micro-benchmarks of the linear-algebra kernels behind the local
// analysis (google-benchmark).  The Potrf/Trsm/Innovation pairs run both
// the dispatched table and the scalar reference so one JSON capture
// (BENCH_linalg.json) records the SIMD speedup on the host that produced
// it; PotrfSolveLanes times the stochastic estimator's batched p×p
// regressions on the end-to-end benchmark's patch shape.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/kernels/dispatch.hpp"
#include "linalg/kernels/simdvec.hpp"
#include "linalg/modified_cholesky.hpp"
#include "linalg/ops.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace {

using namespace senkf;
using linalg::Index;
using linalg::Matrix;
using linalg::Vector;
using linalg::kernels::KernelTable;

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

Matrix random_spd(Index n, std::uint64_t seed) {
  Matrix m = random_matrix(n, n, seed);
  Matrix a = linalg::multiply_a_bt(m, m);
  for (Index i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

/// Reports the kernel throughput: `flops` is the FLOP count of one
/// iteration (2·m·n·k for a GEMM).
void report_gflops(benchmark::State& state, double flops) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_Gemm(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  report_gflops(state, 2.0 * static_cast<double>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The LETKF-shaped products are tall and skinny, not square: the
// expansion has thousands of grid points (rows) but only N ≈ 40–120
// ensemble members (columns).  Xᵃ = U·W is (rows × N)·(N × N).
void BM_GemmAnomalyTransform(benchmark::State& state) {
  const Index rows = static_cast<Index>(state.range(0));
  const Index members = static_cast<Index>(state.range(1));
  const Matrix u = random_matrix(rows, members, 1);
  const Matrix w = random_matrix(members, members, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply(u, w));
  }
  report_gflops(state, 2.0 * static_cast<double>(rows * members * members));
}
BENCHMARK(BM_GemmAnomalyTransform)
    ->Args({1024, 40})
    ->Args({4096, 40})
    ->Args({4096, 120})
    ->Args({16384, 40});

void BM_GemmAtB(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix a = random_matrix(n, n, 3);
  const Matrix b = random_matrix(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_at_b(a, b));
  }
  report_gflops(state, 2.0 * static_cast<double>(n * n * n));
}
BENCHMARK(BM_GemmAtB)->Arg(64)->Arg(128);

// ỸᵀR⁻¹Ỹ-shaped reduction: (m̄ × N)ᵀ·(m̄ × N) with many observation rows
// collapsing onto an N×N ensemble-space system.
void BM_GemmAtBTall(benchmark::State& state) {
  const Index rows = static_cast<Index>(state.range(0));
  const Index members = static_cast<Index>(state.range(1));
  const Matrix a = random_matrix(rows, members, 3);
  const Matrix b = random_matrix(rows, members, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_at_b(a, b));
  }
  report_gflops(state,
                2.0 * static_cast<double>(rows * members * members));
}
BENCHMARK(BM_GemmAtBTall)->Args({4096, 40})->Args({4096, 120});

// B = U·Uᵀ-shaped outer product over a short member axis.
void BM_GemmABtTall(benchmark::State& state) {
  const Index rows = static_cast<Index>(state.range(0));
  const Index members = static_cast<Index>(state.range(1));
  const Matrix u = random_matrix(rows, members, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_a_bt(u, u));
  }
  report_gflops(state, 2.0 * static_cast<double>(rows * rows * members));
}
BENCHMARK(BM_GemmABtTall)->Args({512, 40})->Args({1024, 40});

void BM_Cholesky(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix a = random_spd(n, 5);
  for (auto _ : state) {
    linalg::CholeskyFactor factor(a);
    benchmark::DoNotOptimize(factor.lower().data());
  }
  const double dn = static_cast<double>(n);
  report_gflops(state, dn * dn * dn / 3.0);
}
BENCHMARK(BM_Cholesky)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_SpdSolve(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix a = random_spd(n, 6);
  const Matrix b = random_matrix(n, 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::solve_spd(a, b));
  }
  const double dn = static_cast<double>(n);
  // One factorization plus forward+backward sweeps over 16 RHS columns.
  report_gflops(state, dn * dn * dn / 3.0 + 2.0 * dn * dn * 16.0);
}
BENCHMARK(BM_SpdSolve)->Arg(64)->Arg(128)->Arg(256);

// ---------------------------------------------------------------------
// Table-level benches: the same kernel body on the dispatched table and
// on the scalar table, so BENCH_linalg.json captures the SIMD speedup
// (the acceptance floor is ≥2× GFLOP/s on blocked Cholesky and trsm).
// ---------------------------------------------------------------------

/// SPD matrix in a raw padded buffer (ld = padded_stride for the table).
std::vector<double> raw_spd(Index n, Index ld, std::uint64_t seed) {
  const Matrix a = random_spd(n, seed);
  std::vector<double> out(n * ld, 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) out[i * ld + j] = a(i, j);
  }
  return out;
}

void bench_potrf(benchmark::State& state, const KernelTable& table) {
  const Index n = static_cast<Index>(state.range(0));
  const Index ld = linalg::kernels::padded_stride(n, table.width);
  const std::vector<double> pristine = raw_spd(n, ld, 5);
  std::vector<double> a = pristine;
  for (auto _ : state) {
    a = pristine;
    benchmark::DoNotOptimize(table.potrf(n, a.data(), ld));
  }
  const double dn = static_cast<double>(n);
  report_gflops(state, dn * dn * dn / 3.0);
  state.SetLabel(table.name);
}

void BM_Potrf(benchmark::State& state) {
  bench_potrf(state, linalg::kernels::active_kernels());
}
void BM_PotrfScalar(benchmark::State& state) {
  bench_potrf(state, linalg::kernels::scalar_kernels());
}
BENCHMARK(BM_Potrf)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_PotrfScalar)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void bench_trsm(benchmark::State& state, const KernelTable& table) {
  const Index n = static_cast<Index>(state.range(0));
  const Index nrhs = static_cast<Index>(state.range(1));
  const Index ld = linalg::kernels::padded_stride(n, table.width);
  std::vector<double> l = raw_spd(n, ld, 6);
  table.potrf(n, l.data(), ld);
  const Index ldb = linalg::kernels::padded_stride(nrhs, table.width);
  std::vector<double> b(n * ldb, 0.0);
  Rng rng(7);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < nrhs; ++j) b[i * ldb + j] = rng.normal();
  }
  for (auto _ : state) {
    table.trsm_lln(n, nrhs, l.data(), ld, b.data(), ldb);
    table.trsm_llt(n, nrhs, l.data(), ld, b.data(), ldb);
    benchmark::DoNotOptimize(b.data());
  }
  const double dn = static_cast<double>(n);
  report_gflops(state, 2.0 * dn * dn * static_cast<double>(nrhs));
  state.SetLabel(table.name);
}

void BM_Trsm(benchmark::State& state) {
  bench_trsm(state, linalg::kernels::active_kernels());
}
void BM_TrsmScalar(benchmark::State& state) {
  bench_trsm(state, linalg::kernels::scalar_kernels());
}
BENCHMARK(BM_Trsm)->Args({128, 16})->Args({256, 16})->Args({256, 120})
    ->Args({512, 40});
BENCHMARK(BM_TrsmScalar)->Args({128, 16})->Args({256, 16})->Args({256, 120})
    ->Args({512, 40});

// The modified-Cholesky estimator's regressions on the ocean-stoch patch
// shape (e2ebench): n̄ = 576 systems at p = 24 predecessors, solved
// `width` at a time, one per vector lane.  Each batch is copied from one
// of eight pristine batches into an L1-sized buffer first, as the
// estimator gathers it, so the copy is part of the timing.
void bench_potrf_solve_lanes(benchmark::State& state,
                             const KernelTable& table) {
  const Index p = static_cast<Index>(state.range(0));
  const Index systems = static_cast<Index>(state.range(1));
  const Index w = table.width;
  constexpr Index kPristine = 8;
  const Index a_size = p * p * w;
  const Index b_size = p * w;
  std::vector<double> a0(kPristine * a_size), b0(kPristine * b_size);
  Rng rng(13);
  for (Index batch = 0; batch < kPristine; ++batch) {
    for (Index l = 0; l < w; ++l) {
      const Matrix spd = random_spd(p, 20 + batch * w + l);
      for (Index i = 0; i < p; ++i) {
        for (Index j = 0; j < p; ++j) {
          a0[batch * a_size + (i * p + j) * w + l] = spd(i, j);
        }
        b0[batch * b_size + i * w + l] = rng.normal();
      }
    }
  }
  std::vector<double> a(a_size), b(b_size);
  const Index batches = (systems + w - 1) / w;
  for (auto _ : state) {
    for (Index batch = 0; batch < batches; ++batch) {
      const Index src = batch % kPristine;
      std::copy_n(a0.begin() + src * a_size, a_size, a.begin());
      std::copy_n(b0.begin() + src * b_size, b_size, b.begin());
      benchmark::DoNotOptimize(
          table.potrf_solve_lanes(p, a.data(), b.data()));
    }
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  const double dp = static_cast<double>(p);
  report_gflops(state, static_cast<double>(batches * w) *
                           (dp * dp * dp / 3.0 + 2.0 * dp * dp));
  state.SetLabel(table.name);
}

void BM_PotrfSolveLanes(benchmark::State& state) {
  bench_potrf_solve_lanes(state, linalg::kernels::active_kernels());
}
void BM_PotrfSolveLanesScalar(benchmark::State& state) {
  bench_potrf_solve_lanes(state, linalg::kernels::scalar_kernels());
}
BENCHMARK(BM_PotrfSolveLanes)->Args({24, 576});
BENCHMARK(BM_PotrfSolveLanesScalar)->Args({24, 576});

// The estimator as the analysis runs it: L written as CSR rows into an
// arena that is reset per call.
void BM_ModifiedCholesky(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Index band = static_cast<Index>(state.range(1));
  const Matrix ensemble = random_matrix(n, 20, 8);
  const Matrix u = linalg::ensemble_anomalies(ensemble);
  const linalg::BandedPredecessors oracle(band);
  support::Arena arena;
  linalg::ModifiedCholesky factors;
  factors.d = Vector(n);
  for (auto _ : state) {
    arena.reset();
    linalg::estimate_inverse_covariance_scratch(u, oracle, 1e-6, arena,
                                                factors);
    benchmark::DoNotOptimize(factors.l.nonzeros());
  }
}
BENCHMARK(BM_ModifiedCholesky)->Args({128, 8})->Args({256, 8})
    ->Args({256, 16});

void BM_EnsembleCovariance(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix ensemble = random_matrix(n, 120, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::sample_covariance(ensemble));
  }
}
BENCHMARK(BM_EnsembleCovariance)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
