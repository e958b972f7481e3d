#include "linalg/covariance.hpp"

#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "linalg/ops.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

TEST(Covariance, MeanOfConstantEnsemble) {
  Matrix ensemble(3, 5, 2.5);
  const Vector mean = ensemble_mean(ensemble);
  for (Index i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(mean[i], 2.5);
}

TEST(Covariance, MeanKnownValues) {
  const Matrix ensemble{{1.0, 3.0}, {2.0, 6.0}};
  const Vector mean = ensemble_mean(ensemble);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 4.0);
}

TEST(Covariance, AnomaliesHaveZeroRowSums) {
  Rng rng(1);
  Matrix ensemble(4, 7);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 7; ++j) ensemble(i, j) = rng.normal(3.0, 2.0);
  }
  const Matrix u = ensemble_anomalies(ensemble);
  for (Index i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (Index j = 0; j < 7; ++j) sum += u(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

TEST(Covariance, SampleCovarianceMatchesDefinition) {
  const Matrix ensemble{{1.0, -1.0}, {2.0, -2.0}};
  // anomalies equal ensemble; B = UUᵀ/(N−1) with N=2.
  const Matrix b = sample_covariance(ensemble);
  EXPECT_DOUBLE_EQ(b(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(b(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
  EXPECT_TRUE(is_symmetric(b));
}

TEST(Covariance, SampleCovarianceOfIidApproachesIdentity) {
  Rng rng(2);
  const Index n = 5, members = 20000;
  Matrix ensemble(n, members);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < members; ++j) ensemble(i, j) = rng.normal();
  }
  const Matrix b = sample_covariance(ensemble);
  EXPECT_LT(max_abs_diff(b, Matrix::identity(n)), 0.05);
}

TEST(Covariance, RequiresTwoMembers) {
  EXPECT_THROW(sample_covariance(Matrix(3, 1)), InvalidArgument);
  EXPECT_THROW(ensemble_mean(Matrix(3, 0)), InvalidArgument);
}

TEST(GaspariCohn, BoundaryValues) {
  EXPECT_DOUBLE_EQ(gaspari_cohn(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(gaspari_cohn(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gaspari_cohn(5.0, 1.0), 0.0);
  EXPECT_THROW(gaspari_cohn(1.0, 0.0), InvalidArgument);
}

TEST(GaspariCohn, MonotoneDecreasingOnSupport) {
  double prev = gaspari_cohn(0.0, 1.0);
  for (double d = 0.05; d <= 2.0; d += 0.05) {
    const double v = gaspari_cohn(d, 1.0);
    EXPECT_LE(v, prev + 1e-12) << "d=" << d;
    EXPECT_GE(v, -1e-12);
    prev = v;
  }
}

TEST(GaspariCohn, ContinuousAtOne) {
  EXPECT_NEAR(gaspari_cohn(1.0 - 1e-9, 1.0), gaspari_cohn(1.0 + 1e-9, 1.0),
              1e-6);
}

TEST(GaspariCohn, ScalesWithRadius) {
  EXPECT_DOUBLE_EQ(gaspari_cohn(3.0, 3.0), gaspari_cohn(1.0, 1.0));
}

TEST(TaperCovariance, ZeroesLongRangeKeepsDiagonal) {
  Rng rng(3);
  Matrix m(6, 6);
  for (Index i = 0; i < 6; ++i) {
    for (Index j = 0; j <= i; ++j) {
      m(i, j) = rng.normal();
      m(j, i) = m(i, j);
    }
    m(i, i) = 6.0;
  }
  const auto dist = [](Index i, Index j) {
    return std::abs(static_cast<double>(i) - static_cast<double>(j));
  };
  const Matrix tapered = taper_covariance(m, dist, 1.0);
  for (Index i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(tapered(i, i), m(i, i));  // distance 0 → weight 1
    for (Index j = 0; j < 6; ++j) {
      if (dist(i, j) >= 2.0) {
        EXPECT_DOUBLE_EQ(tapered(i, j), 0.0);
      }
    }
  }
  EXPECT_TRUE(is_symmetric(tapered));
}

}  // namespace
}  // namespace senkf::linalg
