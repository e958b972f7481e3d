#include "linalg/modified_cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/kernels/dispatch.hpp"
#include "linalg/ops.hpp"

namespace senkf::linalg {

Matrix ModifiedCholesky::inverse_covariance() const {
  // B̂⁻¹ = Lᵀ D⁻¹ L.  Form D⁻¹L once, then multiply by Lᵀ.
  const Matrix dense_l = l.to_dense();
  Matrix dinv_l = dense_l;
  for (Index i = 0; i < dim(); ++i) {
    const double inv = 1.0 / d[i];
    for (Index j = 0; j <= i; ++j) dinv_l(i, j) *= inv;
  }
  return multiply_at_b(dense_l, dinv_l);
}

Vector ModifiedCholesky::apply_inverse(const Vector& x) const {
  SENKF_REQUIRE(x.size() == dim(), "ModifiedCholesky: length mismatch");
  Vector t = l.multiply(x);
  for (Index i = 0; i < dim(); ++i) t[i] /= d[i];
  return l.multiply_transpose(t);
}

std::span<const Index> BandedPredecessors::predecessors(
    Index i, support::Arena& scratch) const {
  const Index first = i > bandwidth_ ? i - bandwidth_ : 0;
  auto out = scratch.allocate_span<Index>(i - first);
  for (Index j = first; j < i; ++j) out[j - first] = j;
  return out;
}

void estimate_inverse_covariance_scratch(const Matrix& anomalies,
                                         const PredecessorOracle& predecessors,
                                         double ridge, support::Arena& arena,
                                         ModifiedCholesky& out) {
  SENKF_REQUIRE(anomalies.cols() >= 2,
                "modified Cholesky: need at least 2 ensemble members");
  SENKF_REQUIRE(ridge >= 0.0, "modified Cholesky: ridge must be >= 0");
  const Index n = anomalies.rows();
  const Index ens = anomalies.cols();
  const double denom = static_cast<double>(ens - 1);
  SENKF_REQUIRE(out.d.size() == n,
                "estimate_inverse_covariance_scratch: output length mismatch");

  // Size L: one pass over the predecessor sets (their spans die with
  // each rewind), then the CSR arrays go below every later rewind point.
  auto row_start = arena.allocate_span<Index>(n + 1);
  row_start[0] = 0;
  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    const std::span<const Index> pred = predecessors.predecessors(i, arena);
    for (const Index j : pred) {
      SENKF_REQUIRE(j < i, "modified Cholesky: predecessor must precede i");
    }
    row_start[i + 1] = row_start[i] + pred.size();
    arena.rewind(row_marker);
  }
  auto columns = arena.allocate_span<Index>(row_start[n]);
  auto values = arena.allocate_span<double>(row_start[n]);

  // The column sweeps are dots and axpys over ensemble-sized rows, so
  // they ride the dispatched SIMD kernels.
  const auto& table = kernels::active_kernels();
  const support::Arena::Marker outer = arena.mark();
  Vector fitted = Vector::scratch(arena.allocate_span<double>(ens));

  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    const std::span<const Index> pred = predecessors.predecessors(i, arena);
    const Index p = pred.size();
    SENKF_REQUIRE(row_start[i] + p == row_start[i + 1],
                  "modified Cholesky: predecessor sets must be stable");
    const auto xi = anomalies.row(i);

    if (pred.empty()) {
      const double var = table.dot(ens, xi.data(), xi.data());
      out.d[i] = std::max(var / denom, ridge + 1e-12);
      arena.rewind(row_marker);
      continue;
    }

    // Normal equations of the regression x_i ~ x_pred:
    //   (Z Zᵀ + ridge I) beta = Z x_iᵀ, with Z the |pred|×N predecessor rows.
    const Index pstride = Matrix::padded_stride(p);
    auto gram_storage = arena.allocate_span<double>(p * pstride);
    std::fill(gram_storage.begin(), gram_storage.end(), 0.0);
    Matrix gram = Matrix::scratch(gram_storage, p, p, pstride);
    auto lfac_storage = arena.allocate_span<double>(p * pstride);
    std::fill(lfac_storage.begin(), lfac_storage.end(), 0.0);
    Matrix lfac = Matrix::scratch(lfac_storage, p, p, pstride);
    Vector beta = Vector::scratch(arena.allocate_span<double>(p));
    for (Index a = 0; a < p; ++a) {
      const auto za = anomalies.row(pred[a]);
      for (Index b = a; b < p; ++b) {
        const auto zb = anomalies.row(pred[b]);
        const double sum = table.dot(ens, za.data(), zb.data());
        gram(a, b) = sum;
        gram(b, a) = sum;
      }
      gram(a, a) += ridge * denom;
      beta[a] = table.dot(ens, za.data(), xi.data());
    }
    // Factor + in-place solve: the same kernel sequence CholeskyFactor /
    // its solve() run, minus their allocations.
    cholesky_factor_into(gram, lfac);
    cholesky_solve_in_place(lfac, beta);

    // Residual variance and the negated coefficients as row i of L:
    // fitted = Σ_a beta_a · z_a accumulated by axpy, rss = ‖x_i − fitted‖².
    std::fill(fitted.begin(), fitted.end(), 0.0);
    for (Index a = 0; a < p; ++a) {
      table.axpy(ens, beta[a], anomalies.row(pred[a]).data(), fitted.data());
    }
    table.axpy(ens, -1.0, xi.data(), fitted.data());
    const double rss = table.dot(ens, fitted.data(), fitted.data());
    out.d[i] = std::max(rss / denom, ridge + 1e-12);
    for (Index a = 0; a < p; ++a) {
      columns[row_start[i] + a] = pred[a];
      values[row_start[i] + a] = -beta[a];
    }
    arena.rewind(row_marker);
  }
  arena.rewind(outer);
  out.l = SparseUnitLower::scratch(row_start, columns, values);
}

ModifiedCholesky estimate_inverse_covariance(
    const Matrix& anomalies, const PredecessorOracle& predecessors,
    double ridge) {
  ModifiedCholesky result;
  result.d = Vector(anomalies.rows(), 0.0);
  support::Arena arena;
  estimate_inverse_covariance_scratch(anomalies, predecessors, ridge, arena,
                                      result);
  result.l = SparseUnitLower(result.l);  // own L before the arena dies
  return result;
}

}  // namespace senkf::linalg
