#include "linalg/modified_cholesky.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/ops.hpp"
#include "linalg/solve.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

// Ensemble whose rows follow an AR(1)-like chain so that banded
// predecessors are the statistically correct neighbourhood.
Matrix ar1_ensemble(Index n, Index members, double phi, Rng& rng) {
  Matrix ensemble(n, members);
  for (Index e = 0; e < members; ++e) {
    double prev = rng.normal();
    ensemble(0, e) = prev;
    for (Index i = 1; i < n; ++i) {
      prev = phi * prev + std::sqrt(1.0 - phi * phi) * rng.normal();
      ensemble(i, e) = prev;
    }
  }
  return ensemble;
}

TEST(ModifiedCholesky, FullPredecessorsMatchExactSampleInverse) {
  // With all predecessors, no ridge and N > n the estimate equals the
  // inverse of the sample covariance (classical Cholesky regression fact).
  Rng rng(1);
  const Index n = 6, members = 200;
  Matrix ensemble(n, members);
  for (Index i = 0; i < n; ++i) {
    for (Index e = 0; e < members; ++e) ensemble(i, e) = rng.normal();
  }
  const Matrix u = ensemble_anomalies(ensemble);
  const auto mc = estimate_inverse_covariance(u, BandedPredecessors(n), 0.0);
  const Matrix b = sample_covariance(ensemble);
  EXPECT_LT(max_abs_diff(mc.inverse_covariance(), inverse(b)), 1e-8);
}

TEST(ModifiedCholesky, LIsUnitLowerTriangular) {
  Rng rng(2);
  const Matrix ensemble = ar1_ensemble(10, 30, 0.7, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              BandedPredecessors(3));
  ASSERT_EQ(mc.l.dim(), 10u);
  for (Index i = 0; i < 10; ++i) {
    for (const Index j : mc.l.row_columns(i)) EXPECT_LT(j, i);
  }
  const Matrix l = mc.l.to_dense();
  for (Index i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(l(i, i), 1.0);
    for (Index j = i + 1; j < 10; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(ModifiedCholesky, BandedSparsityPattern) {
  Rng rng(3);
  const Index band = 2;
  const Matrix ensemble = ar1_ensemble(12, 25, 0.6, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              BandedPredecessors(band));
  // L stores exactly the predecessor columns: 0, 1, then `band` per row.
  EXPECT_EQ(mc.l.nonzeros(), 1u + (12 - band) * band);
  for (Index i = 0; i < 12; ++i) {
    for (const Index j : mc.l.row_columns(i)) {
      EXPECT_LE(i - j, band) << "i=" << i << " j=" << j;
    }
  }
}

TEST(ModifiedCholesky, InverseCovarianceIsSpd) {
  Rng rng(4);
  const Matrix ensemble = ar1_ensemble(15, 10, 0.8, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              BandedPredecessors(4), 1e-6);
  const Matrix binv = mc.inverse_covariance();
  EXPECT_TRUE(is_symmetric(binv, 1e-10));
  EXPECT_NO_THROW(CholeskyFactor{binv});  // SPD iff Cholesky succeeds
}

TEST(ModifiedCholesky, WellDefinedWhenNeighbourhoodExceedsEnsemble) {
  // The method's raison d'être: n ≫ N must still give an SPD estimate.
  Rng rng(5);
  const Matrix ensemble = ar1_ensemble(40, 8, 0.9, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              BandedPredecessors(20), 1e-4);
  EXPECT_NO_THROW(CholeskyFactor{mc.inverse_covariance()});
}

TEST(ModifiedCholesky, ApplyInverseMatchesDense) {
  Rng rng(6);
  const Matrix ensemble = ar1_ensemble(9, 20, 0.5, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              BandedPredecessors(3));
  const Matrix dense = mc.inverse_covariance();
  Vector x(9);
  for (auto& v : x) v = rng.normal();
  EXPECT_LT(max_abs_diff(mc.apply_inverse(x), multiply(dense, x)), 1e-11);
}

TEST(ModifiedCholesky, CapturesAr1Structure) {
  // For an AR(1) process the true inverse covariance is tridiagonal; a
  // bandwidth-1 estimate from a large ensemble should recover the
  // off-diagonal sign (−phi/(1−phi²) < 0).
  Rng rng(7);
  const double phi = 0.7;
  const Matrix ensemble = ar1_ensemble(8, 4000, phi, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              BandedPredecessors(1), 0.0);
  const Matrix binv = mc.inverse_covariance();
  for (Index i = 1; i < 8; ++i) {
    EXPECT_LT(binv(i, i - 1), 0.0);
    EXPECT_NEAR(binv(i, i - 1), -phi / (1.0 - phi * phi), 0.15);
  }
}

TEST(ModifiedCholesky, InvalidInputsThrow) {
  EXPECT_THROW(
      estimate_inverse_covariance(Matrix(3, 1), BandedPredecessors(1)),
      InvalidArgument);
  EXPECT_THROW(
      estimate_inverse_covariance(Matrix(3, 5), BandedPredecessors(1), -1.0),
      InvalidArgument);
  // Predecessor oracle returning j >= i must be rejected.
  class NotAPredecessor final : public PredecessorOracle {
   public:
    std::span<const Index> predecessors(Index,
                                        support::Arena&) const override {
      return bad_;
    }

   private:
    std::array<Index, 1> bad_{5};
  };
  Matrix u(3, 5, 1.0);
  EXPECT_THROW(estimate_inverse_covariance(u, NotAPredecessor()),
               InvalidArgument);
}

TEST(ModifiedCholesky, BandedPredecessorsShape) {
  const BandedPredecessors oracle(3);
  support::Arena arena;
  const auto pred = [&](Index i) {
    const std::span<const Index> set = oracle.predecessors(i, arena);
    return std::vector<Index>(set.begin(), set.end());
  };
  EXPECT_TRUE(pred(0).empty());
  EXPECT_EQ(pred(2), (std::vector<Index>{0, 1}));
  EXPECT_EQ(pred(5), (std::vector<Index>{2, 3, 4}));
}

}  // namespace
}  // namespace senkf::linalg
