// Modified-Cholesky estimation of the inverse background-error covariance.
//
// P-EnKF (Nino-Ruiz, Sandu & Deng 2017/2018, cited as [23][24] in the
// paper) replaces the rank-deficient ensemble covariance B = UUᵀ/(N−1)
// with a well-conditioned sparse estimate of B̂⁻¹ built from the modified
// Cholesky decomposition of Bickel & Levina:
//
//   B̂⁻¹ = Lᵀ D⁻¹ L,
//
// where L is unit lower-triangular whose row i holds the negated
// coefficients of the regression of variable i onto its *localized
// predecessors* (variables earlier in the ordering and within the radius
// of influence), and D is the diagonal of residual variances.  Sparsity of
// L comes from localization: row i only has entries in columns pred(i).
#pragma once

#include <span>

#include "linalg/matrix.hpp"
#include "linalg/sparse_lower.hpp"
#include "support/arena.hpp"

namespace senkf::linalg {

/// Result of the modified Cholesky estimation: `l` is the unit
/// lower-triangular factor stored row-compressed (only the predecessor
/// columns of each row; the unit diagonal is implicit), `d` holds the
/// residual variances.
struct ModifiedCholesky {
  SparseUnitLower l;  ///< unit lower-triangular regression factor
  Vector d;           ///< residual variances (diagonal of D)

  Index dim() const { return d.size(); }

  /// Dense B̂⁻¹ = Lᵀ D⁻¹ L (tests/diagnostics; the analysis never forms
  /// it — it applies B̂ = L⁻¹DL⁻ᵀ by sparse sweeps over the rows of L).
  Matrix inverse_covariance() const;

  /// y = B̂⁻¹ x = Lᵀ D⁻¹ L x from the compressed factor, without forming
  /// B̂⁻¹.
  Vector apply_inverse(const Vector& x) const;
};

/// Predecessor oracle: given variable i, the indices j < i within the
/// localization neighbourhood of i (any order, no duplicates).
/// Implementations may place the returned span in `scratch` (it stays
/// valid until the caller rewinds) or point at storage they own.
class PredecessorOracle {
 public:
  virtual ~PredecessorOracle() = default;
  virtual std::span<const Index> predecessors(
      Index i, support::Arena& scratch) const = 0;
};

/// Oracle for a banded ordering: pred(i) are the up-to-`bandwidth`
/// immediately preceding variables, written into `scratch`.
class BandedPredecessors final : public PredecessorOracle {
 public:
  explicit BandedPredecessors(Index bandwidth) : bandwidth_(bandwidth) {}
  std::span<const Index> predecessors(Index i,
                                      support::Arena& scratch) const override;

 private:
  Index bandwidth_;
};

/// Estimates B̂⁻¹ from ensemble anomalies, writing every temporary into
/// `arena` (the analysis' path).
///
/// `anomalies` is the n×N matrix U of mean-subtracted ensemble members
/// (one row per model variable, one column per member).  `predecessors`
/// encodes localization.  `ridge` regularizes each small regression's
/// normal equations, which keeps the estimate well-defined even when the
/// neighbourhood is larger than the ensemble size (the situation that
/// motivates the method).
///
/// `out.d` must be pre-shaped to length n and is fully overwritten;
/// `out.l` becomes a scratch factor whose CSR arrays are allocated from
/// `arena` ahead of the temporaries (the cross-product band, the batched
/// Gram systems — released by mark/rewind brackets), so L lives until the
/// caller rewinds the arena.  The predecessor sets are queried twice:
/// once to size L, once to fill it.
///
/// The cross products u_j·u_i of rows at most `reach` = max_i(i − min
/// pred(i)) apart are computed once, as a band, and every regression's
/// Gram matrix and right-hand side is gathered from it; the regressions
/// are factored and solved `width` rows at a time by the kernel table's
/// potrf_solve_lanes, so a row's coefficients do not depend on the rows
/// batched with it.  Throws NumericError if a regression is not positive
/// definite.
void estimate_inverse_covariance_scratch(const Matrix& anomalies,
                                         const PredecessorOracle& predecessors,
                                         double ridge, support::Arena& arena,
                                         ModifiedCholesky& out);

/// Owning wrapper over the scratch form (tests and diagnostics): runs it
/// on a private arena and copies L out before the arena dies.
ModifiedCholesky estimate_inverse_covariance(
    const Matrix& anomalies, const PredecessorOracle& predecessors,
    double ridge = 1e-8);

}  // namespace senkf::linalg
