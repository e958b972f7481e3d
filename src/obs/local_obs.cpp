#include "obs/local_obs.hpp"

#include <algorithm>

#include "linalg/ops.hpp"

namespace senkf::obs {

LocalObservations::LocalObservations(const ObservationSet& observations,
                                     grid::Rect rect)
    : rect_(rect) {
  const auto& comps = observations.components();
  for (Index i = 0; i < comps.size(); ++i) {
    if (comps[i].supported_by(rect)) selected_.push_back(i);
  }

  const Index m = selected_.size();
  const Index n = rect.count();
  h_ = linalg::Matrix(m, n, 0.0);
  r_diag_ = linalg::Vector(m, 0.0);

  // Patch-local row-major indexing must match grid::Patch::local_index.
  const Index width = rect.x.size();
  for (Index row = 0; row < m; ++row) {
    const ObsComponent& comp = comps[selected_[row]];
    Index first = n;
    Index last = 0;
    for (const auto& sp : comp.support) {
      const Index local = (sp.point.y - rect.y.begin) * width +
                          (sp.point.x - rect.x.begin);
      h_(row, local) += sp.weight;
      first = std::min(first, local);
      last = std::max(last, local);
    }
    if (first <= last) bandwidth_ = std::max(bandwidth_, last - first);
    r_diag_[row] = comp.error_std * comp.error_std;
  }

  // Precompute the R⁻¹-weighted products the analysis needs on every
  // patch, with the exact kernel sequence the analysis used to run
  // inline (reciprocal loop, copy + row_scale, Aᵀ·B product) so cached
  // and freshly-computed analyses agree bit-for-bit.
  rinv_ = linalg::Vector(m);
  local_values_ = linalg::Vector(m);
  for (Index row = 0; row < m; ++row) {
    rinv_[row] = 1.0 / r_diag_[row];
    local_values_[row] = observations.values()[selected_[row]];
  }
  rinv_h_ = h_;
  linalg::row_scale(rinv_, rinv_h_);
  if (m > 0) ht_rinv_h_ = linalg::multiply_at_b(h_, rinv_h_);
}

linalg::Matrix LocalObservations::select_rows(
    const linalg::Matrix& global) const {
  linalg::Matrix out(selected_.size(), global.cols());
  select_rows_into(global, out);
  return out;
}

void LocalObservations::select_rows_into(const linalg::Matrix& global,
                                         linalg::Matrix& out) const {
  SENKF_REQUIRE(out.rows() == selected_.size() && out.cols() == global.cols(),
                "LocalObservations::select_rows_into: shape mismatch");
  for (Index row = 0; row < selected_.size(); ++row) {
    SENKF_REQUIRE(selected_[row] < global.rows(),
                  "LocalObservations::select_rows: index out of range");
    const auto src = global.row(selected_[row]);
    auto dst = out.row(row);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

linalg::Vector LocalObservations::apply_h(const grid::Patch& patch) const {
  SENKF_REQUIRE(patch.rect() == rect_,
                "LocalObservations::apply_h: patch must cover the rect");
  linalg::Vector x(patch.size());
  std::copy(patch.values().begin(), patch.values().end(), x.begin());
  return linalg::multiply(h_, x);
}

}  // namespace senkf::obs
