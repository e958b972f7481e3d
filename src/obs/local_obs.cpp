#include "obs/local_obs.hpp"

#include <algorithm>

#include "linalg/ops.hpp"

namespace senkf::obs {

LocalObservations::LocalObservations(const ObservationSet& observations,
                                     grid::Rect rect)
    : rect_(rect) {
  const auto& comps = observations.components();
  Index support_points = 0;
  for (Index i = 0; i < comps.size(); ++i) {
    if (comps[i].supported_by(rect)) {
      selected_.push_back(i);
      support_points += comps[i].support.size();
    }
  }

  const Index m = selected_.size();
  row_start_.reserve(m + 1);
  row_start_.push_back(0);
  columns_.reserve(support_points);
  weights_.reserve(support_points);
  r_diag_ = linalg::Vector(m);
  rinv_ = linalg::Vector(m);
  local_values_ = linalg::Vector(m);

  // Patch-local row-major indexing must match grid::Patch::local_index.
  const Index width = rect.x.size();
  for (Index row = 0; row < m; ++row) {
    const ObsComponent& comp = comps[selected_[row]];
    const Index begin = row_start_.back();
    for (const auto& sp : comp.support) {
      const Index local = (sp.point.y - rect.y.begin) * width +
                          (sp.point.x - rect.x.begin);
      // Insert into the row's ascending columns; a repeated point adds
      // its weight to the existing entry, in support order — the sum a
      // dense h(row, local) += weight assembly forms.
      Index pos = columns_.size();
      while (pos > begin && columns_[pos - 1] > local) --pos;
      if (pos > begin && columns_[pos - 1] == local) {
        weights_[pos - 1] += sp.weight;
      } else {
        columns_.insert(columns_.begin() + pos, local);
        weights_.insert(weights_.begin() + pos, sp.weight);
      }
    }
    row_start_.push_back(columns_.size());
    r_diag_[row] = comp.error_std * comp.error_std;
    rinv_[row] = 1.0 / r_diag_[row];
    local_values_[row] = observations.values()[selected_[row]];
  }
}

std::size_t LocalObservations::memory_bytes() const {
  const std::size_t indices =
      selected_.size() + row_start_.size() + columns_.size();
  const std::size_t doubles =
      weights_.size() + r_diag_.size() + rinv_.size() + local_values_.size();
  return indices * sizeof(Index) + doubles * sizeof(double);
}

void LocalObservations::apply_h_into(const linalg::Matrix& x,
                                     linalg::Matrix& out) const {
  SENKF_REQUIRE(x.rows() == rect_.count() && out.rows() == size() &&
                    out.cols() == x.cols(),
                "LocalObservations::apply_h_into: shape mismatch");
  const Index k = x.cols();
  for (Index row = 0; row < size(); ++row) {
    const auto cols = row_columns(row);
    const auto weights = row_weights(row);
    double* dst = out.row(row).data();
    std::fill_n(dst, k, 0.0);
    for (Index s = 0; s < cols.size(); ++s) {
      const double* src = x.row(cols[s]).data();
      for (Index j = 0; j < k; ++j) dst[j] += weights[s] * src[j];
    }
  }
}

void LocalObservations::apply_h_into(const linalg::Vector& x,
                                     linalg::Vector& out) const {
  SENKF_REQUIRE(x.size() == rect_.count() && out.size() == size(),
                "LocalObservations::apply_h_into: length mismatch");
  for (Index row = 0; row < size(); ++row) {
    const auto cols = row_columns(row);
    const auto weights = row_weights(row);
    double sum = 0.0;
    for (Index s = 0; s < cols.size(); ++s) sum += weights[s] * x[cols[s]];
    out[row] = sum;
  }
}

linalg::Vector LocalObservations::apply_h(const grid::Patch& patch) const {
  SENKF_REQUIRE(patch.rect() == rect_,
                "LocalObservations::apply_h: patch must cover the rect");
  linalg::Vector x(patch.size());
  std::copy(patch.values().begin(), patch.values().end(), x.begin());
  linalg::Vector out(size());
  apply_h_into(x, out);
  return out;
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

linalg::Matrix LocalObservations::h() const {
  linalg::Matrix out(size(), rect_.count(), 0.0);
  for (Index row = 0; row < size(); ++row) {
    const auto cols = row_columns(row);
    const auto weights = row_weights(row);
    for (Index s = 0; s < cols.size(); ++s) out(row, cols[s]) += weights[s];
  }
  return out;
}

linalg::Matrix LocalObservations::rinv_h() const {
  linalg::Matrix out = h();
  linalg::row_scale(rinv_, out);
  return out;
}

linalg::Matrix LocalObservations::ht_rinv_h() const {
  const Index n = rect_.count();
  linalg::Matrix out(n, n, 0.0);
  for (Index row = 0; row < size(); ++row) {
    const auto cols = row_columns(row);
    const auto weights = row_weights(row);
    for (Index a = 0; a < cols.size(); ++a) {
      for (Index b = 0; b < cols.size(); ++b) {
        out(cols[a], cols[b]) += weights[a] * (rinv_[row] * weights[b]);
      }
    }
  }
  return out;
}

}  // namespace senkf::obs
