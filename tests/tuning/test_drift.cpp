#include "tuning/drift.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace senkf::tuning {
namespace {

TEST(FitTrend, RecoversKnownSlopeAndIntercept) {
  // value = 250 + 40·t at t = 0, 0.5, …, 2.5 s, on a clock whose origin
  // is far from zero (as now_ns() is).
  constexpr std::int64_t kOriginNs = 123'456'789'000'000;
  std::vector<telemetry::SeriesPoint> points;
  for (int i = 0; i < 6; ++i) {
    const double t = 0.5 * i;
    points.push_back({kOriginNs + static_cast<std::int64_t>(t * 1e9),
                      250.0 + 40.0 * t});
  }
  const DriftTrend trend = fit_trend(points);
  EXPECT_EQ(trend.points, 6u);
  EXPECT_DOUBLE_EQ(trend.latest, 350.0);
  EXPECT_NEAR(trend.slope_per_s, 40.0, 1e-9);
  // The fitted line passes through (mean t, mean value): mean t = 1.25 s.
  EXPECT_NEAR(trend.mean - trend.slope_per_s * 1.25, 250.0, 1e-9);
}

TEST(FitTrend, OnePointHasNoSlope) {
  const DriftTrend trend = fit_trend({{42, -7.5}});
  EXPECT_EQ(trend.points, 1u);
  EXPECT_DOUBLE_EQ(trend.latest, -7.5);
  EXPECT_DOUBLE_EQ(trend.mean, -7.5);
  EXPECT_DOUBLE_EQ(trend.slope_per_s, 0.0);
}

TEST(FitTrend, EmptySeriesIsAllZeros) {
  const DriftTrend trend = fit_trend({});
  EXPECT_EQ(trend.points, 0u);
  EXPECT_DOUBLE_EQ(trend.latest, 0.0);
  EXPECT_DOUBLE_EQ(trend.mean, 0.0);
  EXPECT_DOUBLE_EQ(trend.slope_per_s, 0.0);
}

}  // namespace
}  // namespace senkf::tuning
