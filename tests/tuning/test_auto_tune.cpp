#include "tuning/auto_tune.hpp"

#include <gtest/gtest.h>

namespace senkf::tuning {
namespace {

CostModelParams small() {
  CostModelParams p;
  p.members = 24;
  p.nx = 360;
  p.ny = 180;
  p.a = 2e-6;
  p.b = 1e-10;
  p.c = 1e-3;
  p.theta = 2.5e-9;
  p.h = 8.0;
  p.xi = 4;
  p.eta = 2;
  return p;
}

TEST(Algorithm1, FindsFeasibleMinimum) {
  const CostModel model(small());
  const auto result = solve_optimization(model, 12, 72);
  ASSERT_TRUE(result.has_value());
  const auto& p = result->params;
  EXPECT_EQ(p.n_cg * p.n_sdy, 12u);
  EXPECT_EQ(p.n_sdx * p.n_sdy, 72u);
  EXPECT_TRUE(model.feasible(p));
  EXPECT_GT(result->t1, 0.0);
}

TEST(Algorithm1, ResultIsExhaustiveMinimum) {
  // Brute-force every constraint-satisfying point and compare.
  const CostModel model(small());
  const std::uint64_t c1 = 12, c2 = 72;
  const auto result = solve_optimization(model, c1, c2);
  ASSERT_TRUE(result.has_value());
  double brute = -1.0;
  for (std::uint64_t j = 1; j <= c1; ++j) {
    if (c1 % j || c2 % j || 180 % j) continue;
    const std::uint64_t k = c1 / j, i = c2 / j;
    if (360 % i || 24 % k) continue;
    for (std::uint64_t l = 1; l <= 180 / j; ++l) {
      if ((180 / j) % l) continue;
      vcluster::SenkfParams p{i, j, l, k};
      const double t = model.t1(p);
      if (brute < 0.0 || t < brute) brute = t;
    }
  }
  EXPECT_DOUBLE_EQ(result->t1, brute);
}

TEST(Algorithm1, InfeasibleBudgetsReturnNullopt) {
  const CostModel model(small());
  // c1 = 7: n_sdy must divide 7 → 1 or 7; 7 does not divide ny=180, so
  // n_sdy = 1, n_cg = 7, but 24 % 7 != 0 → infeasible.
  EXPECT_FALSE(solve_optimization(model, 7, 72).has_value());
  EXPECT_THROW(solve_optimization(model, 0, 72), senkf::InvalidArgument);
}

TEST(Staircase, StrictlyDecreasingT1) {
  const CostModel model(small());
  const auto stairs = improvement_staircase(model, 72, 200);
  ASSERT_GE(stairs.size(), 2u);
  for (std::size_t m = 0; m + 1 < stairs.size(); ++m) {
    EXPECT_LT(stairs[m + 1].t1, stairs[m].t1);
    EXPECT_LT(stairs[m].c1, stairs[m + 1].c1);
  }
}

TEST(Staircase, RespectsC1Budget) {
  const CostModel model(small());
  const auto stairs = improvement_staircase(model, 72, 30);
  for (const auto& point : stairs) EXPECT_LE(point.c1, 30u);
}

TEST(EconomicIndex, LargeEpsilonStopsEarly) {
  const CostModel model(small());
  const auto stairs = improvement_staircase(model, 72, 200);
  ASSERT_GE(stairs.size(), 2u);
  // With a huge ε every step is "not worth it" → first point.
  EXPECT_EQ(most_economic_index(stairs, 1e9), 0u);
  // With a tiny ε every step pays → last point.
  EXPECT_EQ(most_economic_index(stairs, 1e-18), stairs.size() - 1);
}

TEST(EconomicIndex, Validation) {
  EXPECT_THROW(most_economic_index({}, 1.0), senkf::InvalidArgument);
  const CostModel model(small());
  const auto stairs = improvement_staircase(model, 72, 40);
  ASSERT_FALSE(stairs.empty());
  EXPECT_THROW(most_economic_index(stairs, 0.0), senkf::InvalidArgument);
}

TEST(Algorithm2, ProducesFeasibleConfigurationWithinBudget) {
  const CostModel model(small());
  const auto result = auto_tune(model, 120, 1e-4);
  EXPECT_TRUE(model.feasible(result.params));
  EXPECT_EQ(result.c2, result.params.n_sdx * result.params.n_sdy);
  EXPECT_EQ(result.c1, result.params.n_cg * result.params.n_sdy);
  EXPECT_LE(result.c1 + result.c2, 120u);
  EXPECT_GT(result.t_total, 0.0);
}

TEST(Algorithm2, UsesMostOfTheBudgetForComputation) {
  // Local analysis dominates this workload, so the tuner should put the
  // bulk of the processors on C₂.
  const CostModel model(small());
  const auto result = auto_tune(model, 240, 1e-4);
  EXPECT_GT(result.c2, result.c1);
}

TEST(Algorithm2, MoreProcessorsNeverWorsenTheModelledTotal) {
  const CostModel model(small());
  double prev = -1.0;
  for (const std::uint64_t np : {60u, 120u, 240u, 480u}) {
    const auto result = auto_tune(model, np, 1e-4);
    if (prev >= 0.0) {
      EXPECT_LE(result.t_total, prev * (1.0 + 1e-12));
    }
    prev = result.t_total;
  }
}

TEST(Algorithm2, LayersAboveOneChosenWhenOverlapPays) {
  // With non-trivial compute and halo, the tuner should pick L > 1 for a
  // big enough machine — the whole point of the multi-stage design.
  const CostModel model(small());
  const auto result = auto_tune(model, 240, 1e-4);
  EXPECT_GE(result.params.layers, 1u);
}

TEST(Algorithm2, TinyMachineStillTunes) {
  const CostModel model(small());
  const auto result = auto_tune(model, 2, 1e-4);
  EXPECT_GE(result.c1, 1u);
  EXPECT_GE(result.c2, 1u);
  EXPECT_THROW(auto_tune(model, 1, 1e-4), senkf::InvalidArgument);
}

TEST(Algorithm2, PaperScaleConfiguration) {
  // The evaluation's workload: 3600×1800, 120 members, 12,000 processors.
  const vcluster::MachineConfig machine;
  const vcluster::SimWorkload workload;
  const CostModel model(params_from(machine, workload));
  const auto result = auto_tune(model, 12000, 1e-5);
  EXPECT_TRUE(model.feasible(result.params));
  EXPECT_LE(result.c1 + result.c2, 12000u);
  // The tuner must exploit concurrency and staging at this scale.
  EXPECT_GT(result.params.n_cg, 1u);
  EXPECT_GT(result.params.layers, 1u);
}

}  // namespace
}  // namespace senkf::tuning
