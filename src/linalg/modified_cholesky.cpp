#include "linalg/modified_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <string>

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

  // Size L and find the reach, max over rows of i − min pred(i): one pass
  // over the predecessor sets (their spans die with each rewind), then
  // the CSR arrays go below every later rewind point.
  auto row_start = arena.allocate_span<Index>(n + 1);
  row_start[0] = 0;
  Index reach = 0;
  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    const std::span<const Index> pred = predecessors.predecessors(i, arena);
    for (const Index j : pred) {
      SENKF_REQUIRE(j < i, "modified Cholesky: predecessor must precede i");
      reach = std::max(reach, i - j);
    }
    row_start[i + 1] = row_start[i] + pred.size();
    arena.rewind(row_marker);
  }
  auto columns = arena.allocate_span<Index>(row_start[n]);
  auto values = arena.allocate_span<double>(row_start[n]);
  for (Index i = 0; i < n; ++i) {
    const support::Arena::Marker row_marker = arena.mark();
    const std::span<const Index> pred = predecessors.predecessors(i, arena);
    SENKF_REQUIRE(row_start[i] + pred.size() == row_start[i + 1],
                  "modified Cholesky: predecessor sets must be stable");
    for (const Index j : pred) {
      SENKF_REQUIRE(j < i && i - j <= reach,
                    "modified Cholesky: predecessor sets must be stable");
    }
    std::copy(pred.begin(), pred.end(), columns.begin() + row_start[i]);
    arena.rewind(row_marker);
  }

  // Every Gram entry and right-hand side is a cross product u_j·u_i of
  // two rows at most `reach` apart, so the band S(i, j) = u_j·u_i,
  // 0 ≤ i − j ≤ reach, at cross[i·stride + i − j], is computed once and
  // gathered from.  The dots ride the dispatched SIMD kernels.
  const auto& table = kernels::active_kernels();
  const support::Arena::Marker outer = arena.mark();
  const Index stride = Matrix::padded_stride(reach + 1);
  auto cross = arena.allocate_span<double>(n * stride);
  for (Index i = 0; i < n; ++i) {
    const double* ui = anomalies.row(i).data();
    for (Index t = 0; t <= std::min(i, reach); ++t) {
      cross[i * stride + t] = table.dot(ens, anomalies.row(i - t).data(), ui);
    }
  }
  const auto s = [&cross, stride](Index i, Index j) {
    return i >= j ? cross[i * stride + i - j] : cross[j * stride + j - i];
  };
  Vector fitted = Vector::scratch(arena.allocate_span<double>(ens));

  // The normal equations of the regressions x_i ~ x_pred(i),
  //   (Z Zᵀ + ridge·(N−1) I) beta = Z x_iᵀ, Z the |pred|×N predecessor rows,
  // are solved `lanes` rows at a time, one system per vector lane.  A
  // row with fewer predecessors than the batch's largest p is padded
  // with identity rows and a zero right-hand side; the padding only
  // ever adds ±0 to its real entries, so no row depends on its batch.
  const Index lanes = table.width;
  for (Index i0 = 0; i0 < n; i0 += lanes) {
    const Index rows = std::min(lanes, n - i0);
    Index p_max = 0;
    for (Index i = i0; i < i0 + rows; ++i) {
      p_max = std::max(p_max, row_start[i + 1] - row_start[i]);
    }
    const support::Arena::Marker batch_marker = arena.mark();
    auto gram = arena.allocate_span<double>(p_max * p_max * lanes);
    auto rhs = arena.allocate_span<double>(p_max * lanes);
    for (Index l = 0; l < lanes; ++l) {
      const Index i = i0 + l;
      const Index p = l < rows ? row_start[i + 1] - row_start[i] : 0;
      const Index* pred = columns.data() + (l < rows ? row_start[i] : 0);
      for (Index a = 0; a < p_max; ++a) {
        double* gram_row = gram.data() + a * p_max * lanes + l;
        if (a < p) {
          for (Index b = 0; b < a; ++b) {
            gram_row[b * lanes] = s(pred[a], pred[b]);
          }
          gram_row[a * lanes] = s(pred[a], pred[a]) + ridge * denom;
          rhs[a * lanes + l] = s(i, pred[a]);
        } else {
          for (Index b = 0; b < a; ++b) gram_row[b * lanes] = 0.0;
          gram_row[a * lanes] = 1.0;
          rhs[a * lanes + l] = 0.0;
        }
      }
    }
    const std::ptrdiff_t pivot =
        table.potrf_solve_lanes(p_max, gram.data(), rhs.data());
    if (pivot >= 0) {
      throw NumericError(
          "modified Cholesky: regression is not positive definite (pivot " +
          std::to_string(pivot) + ")");
    }

    // Per row: residual variance and the negated coefficients as row i
    // of L.  fitted = Σ_a beta_a · z_a accumulated by axpy,
    // rss = ‖x_i − fitted‖².
    for (Index l = 0; l < rows; ++l) {
      const Index i = i0 + l;
      const Index p = row_start[i + 1] - row_start[i];
      if (p == 0) {
        out.d[i] = std::max(s(i, i) / denom, ridge + 1e-12);
        continue;
      }
      const Index* pred = columns.data() + row_start[i];
      std::fill(fitted.begin(), fitted.end(), 0.0);
      for (Index a = 0; a < p; ++a) {
        table.axpy(ens, rhs[a * lanes + l], anomalies.row(pred[a]).data(),
                   fitted.data());
      }
      table.axpy(ens, -1.0, anomalies.row(i).data(), fitted.data());
      const double rss = table.dot(ens, fitted.data(), fitted.data());
      out.d[i] = std::max(rss / denom, ridge + 1e-12);
      for (Index a = 0; a < p; ++a) {
        values[row_start[i] + a] = -rhs[a * lanes + l];
      }
    }
    arena.rewind(batch_marker);
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
