#include "linalg/sparse_lower.hpp"

#include <cmath>
#include <utility>

#include "linalg/kernels/dispatch.hpp"

namespace senkf::linalg {

SparseUnitLower SparseUnitLower::from_dense(const Matrix& l,
                                            double drop_tol) {
  SENKF_REQUIRE(l.square(), "SparseUnitLower: matrix must be square");
  SENKF_REQUIRE(drop_tol >= 0.0, "SparseUnitLower: drop_tol must be >= 0");
  const Index n = l.rows();
  std::vector<Index> row_start;
  std::vector<Index> columns;
  std::vector<double> values;
  row_start.reserve(n + 1);
  row_start.push_back(0);
  for (Index i = 0; i < n; ++i) {
    SENKF_REQUIRE(l(i, i) == 1.0,
                  "SparseUnitLower: diagonal must be exactly 1");
    for (Index j = 0; j < i; ++j) {
      const double v = l(i, j);
      if (std::abs(v) > drop_tol) {
        columns.push_back(j);
        values.push_back(v);
      }
    }
    row_start.push_back(values.size());
  }
  SparseUnitLower out;
  out.own(std::move(row_start), std::move(columns), std::move(values));
  return out;
}

SparseUnitLower SparseUnitLower::scratch(std::span<const Index> row_start,
                                         std::span<const Index> columns,
                                         std::span<const double> values) {
  SENKF_REQUIRE(!row_start.empty() && row_start.front() == 0 &&
                    row_start.back() == columns.size() &&
                    columns.size() == values.size(),
                "SparseUnitLower::scratch: inconsistent CSR arrays");
  SparseUnitLower out;
  out.row_start_ = row_start;
  out.column_ = columns;
  out.values_ = values;
  out.scratch_ = true;
  return out;
}

SparseUnitLower::SparseUnitLower(const SparseUnitLower& other) {
  own(std::vector<Index>(other.row_start_.begin(), other.row_start_.end()),
      std::vector<Index>(other.column_.begin(), other.column_.end()),
      std::vector<double>(other.values_.begin(), other.values_.end()));
}

SparseUnitLower& SparseUnitLower::operator=(const SparseUnitLower& other) {
  if (this != &other) {
    SparseUnitLower copy(other);
    move_from(copy);
  }
  return *this;
}

void SparseUnitLower::own(std::vector<Index> row_start,
                          std::vector<Index> columns,
                          std::vector<double> values) {
  row_start_store_ = std::move(row_start);
  column_store_ = std::move(columns);
  values_store_ = std::move(values);
  row_start_ = row_start_store_;
  column_ = column_store_;
  values_ = values_store_;
  scratch_ = false;
}

void SparseUnitLower::move_from(SparseUnitLower& other) noexcept {
  // Moving a std::vector keeps its buffer, so owning spans stay valid.
  row_start_store_ = std::move(other.row_start_store_);
  column_store_ = std::move(other.column_store_);
  values_store_ = std::move(other.values_store_);
  row_start_ = other.row_start_;
  column_ = other.column_;
  values_ = other.values_;
  scratch_ = other.scratch_;
  other.row_start_ = {};
  other.column_ = {};
  other.values_ = {};
  other.scratch_ = false;
}

std::size_t SparseUnitLower::memory_bytes() const {
  return row_start_.size() * sizeof(Index) + column_.size() * sizeof(Index) +
         values_.size() * sizeof(double);
}

Vector SparseUnitLower::multiply(const Vector& x) const {
  SENKF_REQUIRE(x.size() == dim(), "SparseUnitLower: length mismatch");
  Vector y = x;  // implicit unit diagonal
  for (Index i = 0; i < dim(); ++i) {
    for (Index s = row_start_[i]; s < row_start_[i + 1]; ++s) {
      y[i] += values_[s] * x[column_[s]];
    }
  }
  return y;
}

Vector SparseUnitLower::multiply_transpose(const Vector& x) const {
  SENKF_REQUIRE(x.size() == dim(), "SparseUnitLower: length mismatch");
  Vector y = x;  // implicit unit diagonal
  for (Index i = 0; i < dim(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (Index s = row_start_[i]; s < row_start_[i + 1]; ++s) {
      y[column_[s]] += values_[s] * xi;
    }
  }
  return y;
}

void SparseUnitLower::solve_in_place(Matrix& x) const {
  SENKF_REQUIRE(x.rows() == dim(), "SparseUnitLower::solve: row mismatch");
  const auto& table = kernels::active_kernels();
  const Index k = x.cols();
  for (Index i = 0; i < dim(); ++i) {
    double* xi = x.row(i).data();
    for (Index s = row_start_[i]; s < row_start_[i + 1]; ++s) {
      table.axpy(k, -values_[s], x.row(column_[s]).data(), xi);
    }
  }
}

void SparseUnitLower::solve_transpose_in_place(Matrix& x) const {
  SENKF_REQUIRE(x.rows() == dim(), "SparseUnitLower::solve: row mismatch");
  const auto& table = kernels::active_kernels();
  const Index k = x.cols();
  for (Index i = dim(); i-- > 0;) {
    const double* xi = x.row(i).data();
    for (Index s = row_start_[i]; s < row_start_[i + 1]; ++s) {
      table.axpy(k, -values_[s], xi, x.row(column_[s]).data());
    }
  }
}

Matrix SparseUnitLower::to_dense() const {
  Matrix out = Matrix::identity(dim());
  for (Index i = 0; i < dim(); ++i) {
    for (Index s = row_start_[i]; s < row_start_[i + 1]; ++s) {
      out(i, column_[s]) = values_[s];
    }
  }
  return out;
}

}  // namespace senkf::linalg
