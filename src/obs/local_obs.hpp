// Localization of observations to an expansion rectangle (paper eq. (6)).
//
// For a sub-domain (or layer) expansion D̄, the local pieces are:
//   * the indices of the observed components entirely supported by D̄,
//   * H_{[i,j]} — the m̄×n̄ operator acting on the expansion patch, kept
//     sparse as one CSR row per selected station: its (patch-local
//     column, weight) pairs, columns strictly ascending (row-major
//     patch-local indexing), a support point listed twice merged into
//     one entry holding the summed weight.  A station has at most 4
//     non-zeros (bilinear), so H̄ is never formed: the analysis applies
//     it by sparse gather (H̄X) and reads its rows to scatter H̄ᵀ,
//   * the diagonal of R_{[i,j]} and its reciprocals,
//   * the corresponding rows of the global Yˢ.
//
// h(), rinv_h() and ht_rinv_h() densify on demand — O(m̄·n̄) and O(n̄²)
// memory per call.  They exist for tests (dense oracles) and the
// end-to-end benchmark's byte count; nothing in the library calls them.
#pragma once

#include <span>
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

  /// Patch-local columns of row `row` of H̄ (strictly ascending).
  std::span<const Index> row_columns(Index row) const {
    return std::span<const Index>(columns_).subspan(
        row_start_[row], row_start_[row + 1] - row_start_[row]);
  }
  /// The weights matching row_columns(row).
  std::span<const double> row_weights(Index row) const {
    return std::span<const double>(weights_).subspan(
        row_start_[row], row_start_[row + 1] - row_start_[row]);
  }

  /// Diagonal of the local R (variances, length size()).
  const linalg::Vector& r_diagonal() const { return r_diag_; }

  /// Element-wise reciprocals of r_diagonal() — the diagonal of R⁻¹,
  /// precomputed so the analysis never re-derives it per patch.
  const linalg::Vector& r_inverse() const { return rinv_; }

  /// The measured values of the selected components (length size()).
  const linalg::Vector& local_values() const { return local_values_; }

  /// Bytes of the localized representation (selection, CSR rows, R
  /// diagonals, values) — what a cache entry holds.
  std::size_t memory_bytes() const;

  /// out = H̄·X for an n̄×k X into a size()×k `out` (every entry
  /// overwritten): row r gathers the rows of X its station touches.
  void apply_h_into(const linalg::Matrix& x, linalg::Matrix& out) const;

  /// out = H̄·x into a length-size() `out`.
  void apply_h_into(const linalg::Vector& x, linalg::Vector& out) const;

  /// H̄ · patch for the patch covering exactly rect().
  linalg::Vector apply_h(const grid::Patch& patch) const;

  /// Extracts the selected rows of a global m×N matrix (e.g. Yˢ).
  linalg::Matrix select_rows(const linalg::Matrix& global) const;

  /// Allocation-free select_rows into a pre-shaped size()×N matrix.
  void select_rows_into(const linalg::Matrix& global,
                        linalg::Matrix& out) const;

  /// Densified H̄ (size() × rect().count()).  Tests and benchmarks only.
  linalg::Matrix h() const;

  /// Densified R⁻¹H̄ (size() × rect().count()).  Tests and benchmarks
  /// only.
  linalg::Matrix rinv_h() const;

  /// Densified H̄ᵀR⁻¹H̄ (rect().count() × rect().count()), summed from
  /// the stations' outer products r⁻¹·h_r·h_rᵀ — the observation term
  /// of eq. (6)'s system matrix.  Tests and benchmarks only.
  linalg::Matrix ht_rinv_h() const;

 private:
  grid::Rect rect_;
  std::vector<Index> selected_;
  std::vector<Index> row_start_;  // size() + 1 offsets into the arrays below
  std::vector<Index> columns_;
  std::vector<double> weights_;
  linalg::Vector r_diag_;
  linalg::Vector rinv_;
  linalg::Vector local_values_;
};

}  // namespace senkf::obs
