#include "grid/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

namespace senkf::grid {
namespace {

// Per-point reference: the generator as it stood before it separated each
// mode into column and row tables — one std::cos per (mode, point), and
// each member built as truth + a separate zero-mean noise field.
struct ReferenceMode {
  double kx;
  double ky;
  double phase;
  double weight;
};

std::vector<ReferenceMode> reference_modes(
    const LatLonGrid& grid, Rng& rng, const SyntheticFieldOptions& options) {
  const double kx_max =
      2.0 * std::numbers::pi * grid.dx_km() / options.correlation_length_km;
  const double ky_max =
      2.0 * std::numbers::pi * grid.dy_km() / options.correlation_length_km;
  std::vector<ReferenceMode> modes(options.modes);
  double weight_sq_sum = 0.0;
  for (auto& mode : modes) {
    mode.kx = rng.uniform(-kx_max, kx_max);
    mode.ky = rng.uniform(-ky_max, ky_max);
    mode.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double k_norm = std::hypot(mode.kx / kx_max, mode.ky / ky_max);
    mode.weight = 1.0 / (1.0 + 4.0 * k_norm * k_norm);
    weight_sq_sum += 0.5 * mode.weight * mode.weight;
  }
  const double scale = options.amplitude / std::sqrt(weight_sq_sum);
  for (auto& mode : modes) mode.weight *= scale;
  return modes;
}

Field reference_field(const LatLonGrid& grid, Rng& rng,
                      const SyntheticFieldOptions& options) {
  const std::vector<ReferenceMode> modes = reference_modes(grid, rng, options);
  Field field(grid, options.mean);
  for (const ReferenceMode& mode : modes) {
    for (Index y = 0; y < grid.ny(); ++y) {
      const double ky_y = mode.ky * static_cast<double>(y) + mode.phase;
      double* row = field.data().data() + y * grid.nx();
      for (Index x = 0; x < grid.nx(); ++x) {
        row[x] += mode.weight *
                  std::cos(mode.kx * static_cast<double>(x) + ky_y);
      }
    }
  }
  return field;
}

SyntheticEnsemble reference_ensemble(const LatLonGrid& grid, Index n_members,
                                     Rng& rng, double background_error,
                                     const SyntheticFieldOptions& options) {
  SyntheticEnsemble out{reference_field(grid, rng, options), {}};
  SyntheticFieldOptions perturbation = options;
  perturbation.amplitude = background_error;
  perturbation.mean = 0.0;
  for (Index k = 0; k < n_members; ++k) {
    Rng member_rng = rng.child(k + 1);
    Field member = out.truth;
    const Field noise = reference_field(grid, member_rng, perturbation);
    for (Index i = 0; i < member.size(); ++i) member[i] += noise[i];
    out.members.push_back(std::move(member));
  }
  return out;
}

double max_abs_difference(const Field& a, const Field& b) {
  double worst = 0.0;
  for (Index i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(Synthetic, SeparableModesMatchPerPointReference) {
  // Non-square, with a mean far from zero so rounding is judged at the
  // magnitude the ocean workloads see.
  const LatLonGrid g(90, 45);
  for (const Index modes : {Index{24}, Index{48}}) {
    SCOPED_TRACE(modes);
    SyntheticFieldOptions opt;
    opt.modes = modes;
    opt.mean = 15.0;
    opt.amplitude = 2.0;

    senkf::Rng field_rng(31), reference_rng(31);
    const Field field = synthetic_field(g, field_rng, opt);
    const Field expected = reference_field(g, reference_rng, opt);
    EXPECT_LE(max_abs_difference(field, expected), 1e-12);

    senkf::Rng ensemble_rng(37), reference_ensemble_rng(37);
    const auto scenario = synthetic_ensemble(g, 5, ensemble_rng, 0.5, opt);
    const auto reference =
        reference_ensemble(g, 5, reference_ensemble_rng, 0.5, opt);
    EXPECT_LE(max_abs_difference(scenario.truth, reference.truth), 1e-12);
    ASSERT_EQ(scenario.members.size(), reference.members.size());
    for (std::size_t k = 0; k < scenario.members.size(); ++k) {
      SCOPED_TRACE(k);
      const Field& member = scenario.members[k];
      EXPECT_LE(max_abs_difference(member, reference.members[k]), 1e-12);
    }
  }
}

TEST(Synthetic, DeterministicFromSeed) {
  const LatLonGrid g(32, 16);
  senkf::Rng r1(42), r2(42);
  const Field a = synthetic_field(g, r1);
  const Field b = synthetic_field(g, r2);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Synthetic, DifferentSeedsDiffer) {
  const LatLonGrid g(32, 16);
  senkf::Rng r1(1), r2(2);
  const Field a = synthetic_field(g, r1);
  const Field b = synthetic_field(g, r2);
  EXPECT_GT(a.rmse_against(b), 0.1);
}

TEST(Synthetic, VarianceNearAmplitudeSquared) {
  const LatLonGrid g(96, 64, 25.0, 25.0);
  senkf::Rng rng(7);
  SyntheticFieldOptions opt;
  opt.amplitude = 2.0;
  opt.modes = 48;
  const Field f = synthetic_field(g, rng, opt);
  double sum = 0.0, sum_sq = 0.0;
  for (Index i = 0; i < f.size(); ++i) {
    sum += f[i];
    sum_sq += f[i] * f[i];
  }
  const double n = static_cast<double>(f.size());
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  // Spatial variance of a finite mode sum fluctuates; generous band.
  EXPECT_GT(var, 1.0);
  EXPECT_LT(var, 9.0);
}

TEST(Synthetic, MeanOffsetApplied) {
  const LatLonGrid g(48, 32);
  senkf::Rng rng(9);
  SyntheticFieldOptions opt;
  opt.mean = 15.0;
  opt.amplitude = 0.5;
  const Field f = synthetic_field(g, rng, opt);
  double sum = 0.0;
  for (Index i = 0; i < f.size(); ++i) sum += f[i];
  EXPECT_NEAR(sum / static_cast<double>(f.size()), 15.0, 1.0);
}

TEST(Synthetic, FieldIsSmoothAtGridScale) {
  // Neighbouring points must be far closer than distant ones: correlated
  // fields, not white noise.
  const LatLonGrid g(64, 64, 20.0, 20.0);
  senkf::Rng rng(11);
  SyntheticFieldOptions opt;
  opt.correlation_length_km = 500.0;
  const Field f = synthetic_field(g, rng, opt);
  double neighbour_diff = 0.0;
  Index count = 0;
  for (Index y = 0; y < 64; ++y) {
    for (Index x = 0; x + 1 < 64; ++x) {
      const double d = f.at(x + 1, y) - f.at(x, y);
      neighbour_diff += d * d;
      ++count;
    }
  }
  neighbour_diff = std::sqrt(neighbour_diff / static_cast<double>(count));
  EXPECT_LT(neighbour_diff, 0.35);  // ≪ field std of ~1
}

TEST(Synthetic, EnsembleMembersScatterAroundTruth) {
  const LatLonGrid g(48, 24);
  senkf::Rng rng(13);
  const auto scenario = synthetic_ensemble(g, 10, rng, 0.5);
  EXPECT_EQ(scenario.members.size(), 10u);
  for (const Field& member : scenario.members) {
    const double rmse = member.rmse_against(scenario.truth);
    EXPECT_GT(rmse, 0.05);
    EXPECT_LT(rmse, 2.0);
  }
}

TEST(Synthetic, EnsembleMembersAreDistinct) {
  const LatLonGrid g(32, 16);
  senkf::Rng rng(17);
  const auto scenario = synthetic_ensemble(g, 4, rng, 0.5);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      EXPECT_GT(scenario.members[a].rmse_against(scenario.members[b]), 0.05);
    }
  }
}

TEST(Synthetic, EnsembleValidation) {
  const LatLonGrid g(8, 8);
  senkf::Rng rng(1);
  EXPECT_THROW(synthetic_ensemble(g, 1, rng), senkf::InvalidArgument);
  EXPECT_THROW(synthetic_ensemble(g, 4, rng, -0.5), senkf::InvalidArgument);
}

TEST(Synthetic, InvalidOptionsThrow) {
  const LatLonGrid g(8, 8);
  senkf::Rng rng(1);
  SyntheticFieldOptions opt;
  opt.modes = 0;
  EXPECT_THROW(synthetic_field(g, rng, opt), senkf::InvalidArgument);
  opt.modes = 4;
  opt.correlation_length_km = 0.0;
  EXPECT_THROW(synthetic_field(g, rng, opt), senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::grid
