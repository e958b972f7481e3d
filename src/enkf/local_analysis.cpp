#include "enkf/local_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/covariance.hpp"
#include "linalg/ops.hpp"
#include "obs/local_obs_cache.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::enkf {

std::span<const linalg::Index> ExpansionPredecessorOracle::predecessors(
    linalg::Index i, support::Arena& scratch) const {
  const Index width = expansion_.x.size();
  const Index yi = i / width;
  const Index xi = i % width;
  const Index y_first = yi > halo_.eta ? yi - halo_.eta : 0;
  const Index x_first = xi > halo_.xi ? xi - halo_.xi : 0;
  const Index x_last = std::min(expansion_.x.size() - 1, xi + halo_.xi);
  // Upper bound on the neighbourhood size; the estimator rewinds past
  // the unused tail with the rest of its per-row scratch.
  const Index bound = (yi - y_first + 1) * (x_last - x_first + 1);
  auto buffer = scratch.allocate_span<linalg::Index>(bound);
  Index count = 0;
  for (Index y = y_first; y <= yi; ++y) {
    for (Index x = x_first; x <= x_last; ++x) {
      const Index j = y * width + x;
      if (j < i) buffer[count++] = j;
    }
  }
  return buffer.first(count);
}

namespace {

telemetry::Counter& patches_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("analysis.patches");
  return c;
}

/// The ensemble gathered onto the expansion, with inflation applied and
/// the mean/anomalies computed in the same pass (one sweep over n̄ rows
/// instead of gather + mean + inflate + mean + subtract).  The summation
/// orders replicate linalg::ensemble_mean / ensemble_anomalies exactly,
/// so every downstream number matches the unfused implementation
/// bit-for-bit.
struct LoadedEnsemble {
  linalg::Matrix xb;         ///< X̄ᵇ, inflated (n̄×N)
  linalg::Matrix anomalies;  ///< X̄ᵇ − x̄1ᵀ (n̄×N)
  linalg::Vector mean;       ///< x̄ of the inflated ensemble (n̄)
};

LoadedEnsemble load_ensemble(std::span<const grid::PatchView> background,
                             grid::Rect expansion, double inflation,
                             LocalAnalysisWorkspace& ws) {
  const Index n_bar = expansion.count();
  const Index n_members = background.size();
  LoadedEnsemble out{ws.matrix(n_bar, n_members),
                     ws.matrix(n_bar, n_members), ws.vector(n_bar)};

  // Per-member pointer to the expansion origin inside the member's own
  // rect — members on a larger rect are gathered in place, no extraction.
  auto bases = ws.arena().allocate_span<const double*>(n_members);
  auto row_strides = ws.arena().allocate_span<Index>(n_members);
  for (Index k = 0; k < n_members; ++k) {
    const grid::Rect r = background[k].rect();
    bases[k] = background[k].values().data() +
               (expansion.y.begin - r.y.begin) * r.x.size() +
               (expansion.x.begin - r.x.begin);
    row_strides[k] = r.x.size();
  }

  const double inv = 1.0 / static_cast<double>(n_members);
  const Index exp_w = expansion.x.size();
  const Index exp_h = expansion.y.size();
  Index i = 0;
  for (Index dy = 0; dy < exp_h; ++dy) {
    for (Index dx = 0; dx < exp_w; ++dx, ++i) {
      double* xrow = out.xb.row(i).data();
      for (Index k = 0; k < n_members; ++k) {
        xrow[k] = bases[k][dy * row_strides[k] + dx];
      }
      double sum = 0.0;
      for (Index k = 0; k < n_members; ++k) sum += xrow[k];
      if (inflation != 1.0) {
        // X ← x̄ + λ(X − x̄), then the anomaly mean is re-derived from
        // the inflated ensemble (as ensemble_anomalies would).
        const double mean1 = sum * inv;
        for (Index k = 0; k < n_members; ++k) {
          xrow[k] = mean1 + inflation * (xrow[k] - mean1);
        }
        sum = 0.0;
        for (Index k = 0; k < n_members; ++k) sum += xrow[k];
      }
      const double mean = sum * inv;
      out.mean[i] = mean;
      double* arow = out.anomalies.row(i).data();
      for (Index k = 0; k < n_members; ++k) arow[k] = xrow[k] - mean;
    }
  }
  return out;
}

/// Stochastic modified-Cholesky update: returns Xᵃ on the expansion
/// (the inflated background updated in place by δX).  With
/// B̂ = L⁻¹DL⁻ᵀ, eq. (6)'s (B̂⁻¹ + H̄ᵀR⁻¹H̄)⁻¹H̄ᵀR⁻¹ equals B̂H̄ᵀ(R + H̄B̂H̄ᵀ)⁻¹
/// (Sherman–Morrison–Woodbury), so the update runs in observation space:
///   δX = G·(R + H̄G)⁻¹(Yˢ − H̄X̄ᵇ),   G = B̂H̄ᵀ (n̄×m̄),
/// G applied by two sparse sweeps over L's rows, then one m̄×m̄ Cholesky
/// and one GEMM; nothing here is n̄×n̄ (DESIGN.md §15).
linalg::Matrix stochastic_update(LoadedEnsemble&& ens,
                                 const obs::LocalObservations& local,
                                 grid::Rect expansion,
                                 const AnalysisOptions& options,
                                 const linalg::Matrix& perturbed,
                                 LocalAnalysisWorkspace& ws) {
  const Index n_bar = ens.xb.rows();
  const Index n_members = ens.xb.cols();
  const Index m_bar = local.size();

  // B̂⁻¹ = LᵀD⁻¹L from the localized modified Cholesky decomposition,
  // with L's rows written as CSR into the workspace arena.
  linalg::ModifiedCholesky binv;
  binv.d = ws.vector(n_bar);
  ExpansionPredecessorOracle oracle(expansion, options.halo);
  linalg::estimate_inverse_covariance_scratch(ens.anomalies, oracle,
                                              options.ridge, ws.arena(), binv);

  // G = L⁻¹DL⁻ᵀH̄ᵀ: H̄ᵀ scattered column by column (≤ 4 weights per
  // station), then the backward sweep, D, and the forward sweep.
  linalg::Matrix g = ws.matrix(n_bar, m_bar);
  for (Index r = 0; r < m_bar; ++r) {
    const auto cols = local.row_columns(r);
    const auto weights = local.row_weights(r);
    for (Index a = 0; a < cols.size(); ++a) g(cols[a], r) = weights[a];
  }
  binv.l.solve_transpose_in_place(g);
  linalg::row_scale(binv.d, g);
  binv.l.solve_in_place(g);

  // S = R + H̄G, factored once.
  linalg::Matrix s = ws.matrix(m_bar, m_bar);
  local.apply_h_into(g, s);
  for (Index r = 0; r < m_bar; ++r) s(r, r) += local.r_diagonal()[r];
  linalg::Matrix s_factor = ws.matrix(m_bar, m_bar);
  linalg::cholesky_factor_into(s, s_factor);

  // Q = S⁻¹(Yˢ − H̄X̄ᵇ) over the N member columns.
  linalg::Matrix q = ws.matrix(m_bar, n_members);
  local.select_rows_into(perturbed, q);
  linalg::Matrix hxb = ws.matrix(m_bar, n_members);
  local.apply_h_into(ens.xb, hxb);
  linalg::axpy(-1.0, hxb, q);
  linalg::cholesky_solve_in_place(s_factor, q);

  // δX = G·Q; Xᵃ = X̄ᵇ + δX.
  linalg::Matrix delta = ws.matrix(n_bar, n_members);
  linalg::multiply_into(g, q, delta);
  linalg::axpy(1.0, delta, ens.xb);
  return std::move(ens.xb);
}

/// LETKF-style deterministic transform (Hunt et al. 2007): analysis in
/// the N-dimensional ensemble space,
///   P̃ = [(N−1)I + ỸᵀR⁻¹Ỹ]⁻¹,   w̄ = P̃ ỸᵀR⁻¹ (y − H x̄),
///   W = √(N−1) · P̃^{1/2},       Xᵃ = x̄1ᵀ + U (w̄1ᵀ + W).
linalg::Matrix deterministic_transform(const LoadedEnsemble& ens,
                                       const obs::LocalObservations& local,
                                       LocalAnalysisWorkspace& ws) {
  const Index n_bar = ens.xb.rows();
  const Index n_members = ens.xb.cols();
  const Index m_bar = local.size();
  const double scale = static_cast<double>(n_members - 1);

  // Observation-space anomalies Ỹ = H U and innovation d = y − H x̄,
  // each row a sparse gather over its station's support.
  linalg::Matrix y_tilde = ws.matrix(m_bar, n_members);
  local.apply_h_into(ens.anomalies, y_tilde);
  linalg::Vector hx_mean = ws.vector(m_bar);
  local.apply_h_into(ens.mean, hx_mean);
  linalg::Vector innovation = ws.vector(m_bar);
  for (Index r = 0; r < m_bar; ++r) {
    innovation[r] = local.local_values()[r] - hx_mean[r];
  }

  // Ensemble-space system: (N−1)I + Ỹᵀ R⁻¹ Ỹ.
  linalg::Matrix rinv_y = ws.matrix(m_bar, n_members);
  rinv_y.assign_values(y_tilde);
  linalg::row_scale(local.r_inverse(), rinv_y);
  linalg::Matrix system = ws.matrix(n_members, n_members);
  linalg::multiply_at_b_into(y_tilde, rinv_y, system);
  for (Index k = 0; k < n_members; ++k) system(k, k) += scale;

  // P̃ via eigen-based inversion (shared with the symmetric square root).
  linalg::Vector eig_values = ws.vector(n_members);
  linalg::Matrix eig_vectors = ws.matrix(n_members, n_members);
  linalg::Matrix work_d = ws.matrix(n_members, n_members);
  linalg::Matrix work_v = ws.matrix(n_members, n_members);
  auto order = ws.indices(n_members);
  linalg::symmetric_eigen_into(system, eig_values, eig_vectors, work_d,
                               work_v, order);
  linalg::Matrix v_scaled_inv = ws.matrix(n_members, n_members);   // V Λ⁻¹
  linalg::Matrix v_scaled_sqrt = ws.matrix(n_members, n_members);  // V Λ^{-1/2}
  v_scaled_inv.assign_values(eig_vectors);
  v_scaled_sqrt.assign_values(eig_vectors);
  for (Index j = 0; j < n_members; ++j) {
    if (eig_values[j] <= 0.0) {
      throw NumericError("deterministic transform: singular system");
    }
    const double inv = 1.0 / eig_values[j];
    const double inv_sqrt = std::sqrt(inv);
    for (Index i = 0; i < n_members; ++i) {
      v_scaled_inv(i, j) *= inv;
      v_scaled_sqrt(i, j) *= inv_sqrt;
    }
  }
  linalg::Matrix p_tilde = ws.matrix(n_members, n_members);
  linalg::multiply_a_bt_into(v_scaled_inv, eig_vectors, p_tilde);
  linalg::Matrix transform = ws.matrix(n_members, n_members);  // P̃^{1/2}
  linalg::multiply_a_bt_into(v_scaled_sqrt, eig_vectors, transform);
  linalg::scale(transform, std::sqrt(scale));             // √(N−1)·P̃^{1/2}

  // Mean weights w̄ = P̃ Ỹᵀ R⁻¹ d.
  linalg::Vector rhs = ws.vector(n_members);
  linalg::multiply_at_into(rinv_y, innovation, rhs);
  linalg::Vector w_mean = ws.vector(n_members);
  linalg::multiply_into(p_tilde, rhs, w_mean);

  // Weight matrix columns: w̄ + W[:,k]; analysis Xᵃ = x̄1ᵀ + U W⁺.
  for (Index i = 0; i < n_members; ++i) {
    for (Index k = 0; k < n_members; ++k) transform(i, k) += w_mean[i];
  }
  linalg::Matrix xa = ws.matrix(n_bar, n_members);
  linalg::multiply_into(ens.anomalies, transform, xa);
  for (Index i = 0; i < n_bar; ++i) {
    for (Index k = 0; k < n_members; ++k) xa(i, k) += ens.mean[i];
  }
  return xa;
}

/// Writes member k's target-rect values (the implicit P of eq. (6))
/// row-major into `dst` — exactly the order Patch::local_index induces.
void project_member(const linalg::Matrix& xa, Index k, grid::Rect target,
                    grid::Rect expansion, std::span<double> dst) {
  const Index width = expansion.x.size();
  Index o = 0;
  for (Index y = target.y.begin; y < target.y.end; ++y) {
    for (Index x = target.x.begin; x < target.x.end; ++x) {
      const Index local_index =
          (y - expansion.y.begin) * width + (x - expansion.x.begin);
      dst[o++] = xa(local_index, k);
    }
  }
}

/// Copies the target window of a member view row-major into `dst`
/// (the skip path's PatchView::extract without the owning Patch).
void extract_member(const grid::PatchView& member, grid::Rect target,
                    std::span<double> dst) {
  const std::span<const double> values = member.values();
  const Index row_width = target.x.size();
  Index o = 0;
  for (Index y = target.y.begin; y < target.y.end; ++y) {
    const Index src = member.local_index(target.x.begin, y);
    std::copy_n(values.begin() + src, row_width, dst.begin() + o);
    o += row_width;
  }
}

}  // namespace

AnalysisView local_analysis_scratch(std::span<const grid::PatchView> background,
                                    grid::Rect expansion, grid::Rect target,
                                    const obs::ObservationSet& observations,
                                    const linalg::Matrix& perturbed,
                                    const AnalysisOptions& options,
                                    LocalAnalysisWorkspace& workspace) {
  workspace.reset();
  SENKF_REQUIRE(background.size() >= 2,
                "local_analysis: need at least 2 ensemble members");
  for (const auto& patch : background) {
    SENKF_REQUIRE(grid::rect_contains(patch.rect(), expansion),
                  "local_analysis: members must cover the expansion rect");
  }
  SENKF_REQUIRE(grid::rect_contains(expansion, target),
                "local_analysis: target must lie inside the expansion");
  SENKF_REQUIRE(perturbed.cols() == background.size(),
                "local_analysis: Ys must have one column per member");
  SENKF_REQUIRE(perturbed.rows() == observations.size(),
                "local_analysis: Ys must have one row per observation");

  SENKF_REQUIRE(options.inflation >= 1.0,
                "local_analysis: inflation must be >= 1");

  patches_counter().add(1);

  const std::shared_ptr<const obs::LocalObservations> local =
      obs::localized(observations, expansion);
  // Xᵃ on the expansion (workspace scratch); unset when there is no
  // observation to assimilate and the analysis equals the background.
  linalg::Matrix xa;
  if (!local->empty()) {
    LoadedEnsemble ens =
        load_ensemble(background, expansion, options.inflation, workspace);
    if (options.kind == AnalysisKind::kDeterministicTransform) {
      xa = deterministic_transform(ens, *local, workspace);
    } else {
      xa = stochastic_update(std::move(ens), *local, expansion, options,
                             perturbed, workspace);
    }
  }

  auto views = workspace.views(background.size());
  for (Index k = 0; k < background.size(); ++k) {
    auto slab = workspace.arena().allocate_span<double>(target.count());
    if (local->empty()) {
      extract_member(background[k], target, slab);
    } else {
      project_member(xa, k, target, expansion, slab);
    }
    views[k] = grid::PatchView(target, slab);
  }
  AnalysisView result;
  result.members = views;
  result.local_observations = local->size();
  return result;
}

}  // namespace senkf::enkf
