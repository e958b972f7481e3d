// Localization of observations to an expansion rectangle (paper eq. (6)).
//
// For a sub-domain (or layer) expansion D̄, the local pieces are:
//   * the indices of the observed components entirely supported by D̄,
//   * H_{[i,j]} — an m̄×n̄ dense operator acting on the expansion patch
//     (row-major patch-local indexing),
//   * the diagonal of R_{[i,j]},
//   * the widest support spread of a selected row (the bandwidth H̄ᵀR⁻¹H̄
//     adds to the analysis' banded system),
//   * the corresponding rows of the global Yˢ.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "obs/observation.hpp"

namespace senkf::obs {

class LocalObservations {
 public:
  /// Selects the components of `observations` supported by `rect`.
  LocalObservations(const ObservationSet& observations, grid::Rect rect);

  grid::Rect rect() const { return rect_; }
  Index size() const { return selected_.size(); }
  bool empty() const { return selected_.empty(); }

  /// Global indices of the selected components (ascending).
  const std::vector<Index>& selected() const { return selected_; }

  /// Dense local operator H̄ (size() × rect().count()).
  const linalg::Matrix& h() const { return h_; }

  /// Diagonal of the local R (variances, length size()).
  const linalg::Vector& r_diagonal() const { return r_diag_; }

  /// Element-wise reciprocals of r_diagonal() — the diagonal of R⁻¹,
  /// precomputed so the analysis never re-derives it per patch.
  const linalg::Vector& r_inverse() const { return rinv_; }

  /// R⁻¹ H̄ (size() × rect().count()), precomputed.
  const linalg::Matrix& rinv_h() const { return rinv_h_; }

  /// H̄ᵀ R⁻¹ H̄ (rect().count() × rect().count()) — the observation term
  /// of eq. (6)'s system matrix.  Computed once per localization instead
  /// of per analysed patch; only available when !empty() (the analysis
  /// skips or zero-fills the term itself in the no-observation case).
  const linalg::Matrix& ht_rinv_h() const {
    SENKF_REQUIRE(!empty(), "LocalObservations::ht_rinv_h: no observations");
    return ht_rinv_h_;
  }

  /// Widest patch-local index spread (last − first support point) of any
  /// selected row — the lower bandwidth of H̄ᵀR⁻¹H̄ under the row-major
  /// ordering.  0 when empty.
  Index bandwidth() const { return bandwidth_; }

  /// The measured values of the selected components (length size()).
  const linalg::Vector& local_values() const { return local_values_; }

  /// Extracts the selected rows of a global m×N matrix (e.g. Yˢ).
  linalg::Matrix select_rows(const linalg::Matrix& global) const;

  /// Allocation-free select_rows into a pre-shaped size()×N matrix.
  void select_rows_into(const linalg::Matrix& global,
                        linalg::Matrix& out) const;

  /// H̄ · patch for the patch covering exactly rect().
  linalg::Vector apply_h(const grid::Patch& patch) const;

 private:
  grid::Rect rect_;
  std::vector<Index> selected_;
  linalg::Matrix h_;
  linalg::Vector r_diag_;
  linalg::Vector rinv_;
  linalg::Matrix rinv_h_;
  linalg::Matrix ht_rinv_h_;
  linalg::Vector local_values_;
  Index bandwidth_ = 0;
};

}  // namespace senkf::obs
