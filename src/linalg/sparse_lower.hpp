// Compact storage for the modified-Cholesky factor.
//
// Localization makes L unit-lower-triangular with at most
// (2ξ+1)(2η+1)/2-ish non-zeros per row, so an n×n dense L wastes O(n²)
// memory — the paper notes that "compact representation of matrices can
// be used ... to exploit the structures of B̂⁻¹" (§2.3).  SparseUnitLower
// stores the strictly-lower non-zeros row-compressed (CSR; the unit
// diagonal is implicit) and applies L / Lᵀ without densifying.
//
// Storage follows Matrix (matrix.hpp): a factor normally owns its
// arrays, but `scratch(...)` builds a non-owning one over caller storage
// (arena spans), which is how the estimator hands the analysis hot path
// an allocation-free L.  Copying yields an owning deep copy; moving
// carries the pointers.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace senkf::linalg {

class SparseUnitLower {
 public:
  SparseUnitLower() = default;

  /// Compresses a dense unit-lower-triangular matrix, dropping strictly-
  /// lower entries with |value| <= drop_tol.  The diagonal must be 1.
  static SparseUnitLower from_dense(const Matrix& l, double drop_tol = 0.0);

  /// Non-owning factor over caller storage: `row_start` (dim+1 offsets,
  /// row_start[0] = 0) indexes `columns`/`values` (row_start[dim]
  /// entries each).  The storage must outlive the factor.
  static SparseUnitLower scratch(std::span<const Index> row_start,
                                 std::span<const Index> columns,
                                 std::span<const double> values);

  SparseUnitLower(const SparseUnitLower& other);
  SparseUnitLower(SparseUnitLower&& other) noexcept { move_from(other); }
  SparseUnitLower& operator=(const SparseUnitLower& other);
  SparseUnitLower& operator=(SparseUnitLower&& other) noexcept {
    if (this != &other) move_from(other);
    return *this;
  }
  ~SparseUnitLower() = default;

  Index dim() const { return row_start_.empty() ? 0 : row_start_.size() - 1; }

  /// Strictly-lower non-zeros stored.
  Index nonzeros() const { return values_.size(); }

  bool is_scratch() const { return scratch_; }

  /// Column indices / values of row i's strictly-lower non-zeros.
  std::span<const Index> row_columns(Index i) const {
    return column_.subspan(row_start_[i], row_start_[i + 1] - row_start_[i]);
  }
  std::span<const double> row_values(Index i) const {
    return values_.subspan(row_start_[i], row_start_[i + 1] - row_start_[i]);
  }

  /// Bytes of the compressed representation.
  std::size_t memory_bytes() const;

  /// y = L x.
  Vector multiply(const Vector& x) const;

  /// y = Lᵀ x.
  Vector multiply_transpose(const Vector& x) const;

  /// X ← L⁻¹X for a dim()×k X, by a forward sweep over the rows of L:
  /// row i of X takes −l_ij·row j for each stored (j, l_ij), one axpy of
  /// length k each.
  void solve_in_place(Matrix& x) const;

  /// X ← L⁻ᵀX, by the matching backward sweep: for i from dim()−1 down,
  /// row j of X takes −l_ij·row i for each stored (j, l_ij).
  void solve_transpose_in_place(Matrix& x) const;

  /// Dense reconstruction (tests/diagnostics).
  Matrix to_dense() const;

 private:
  void move_from(SparseUnitLower& other) noexcept;
  void own(std::vector<Index> row_start, std::vector<Index> columns,
           std::vector<double> values);

  std::vector<Index> row_start_store_;
  std::vector<Index> column_store_;
  std::vector<double> values_store_;
  std::span<const Index> row_start_;  // size dim+1
  std::span<const Index> column_;
  std::span<const double> values_;
  bool scratch_ = false;
};

}  // namespace senkf::linalg
