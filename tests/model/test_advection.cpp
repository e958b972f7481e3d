#include "model/advection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "grid/synthetic.hpp"

namespace senkf::model {
namespace {

grid::Field blob(const grid::LatLonGrid& mesh, Index cx, Index cy) {
  grid::Field f(mesh, 0.0);
  for (Index y = 0; y < mesh.ny(); ++y) {
    for (Index x = 0; x < mesh.nx(); ++x) {
      const double dx = static_cast<double>(x) - static_cast<double>(cx);
      const double dy = static_cast<double>(y) - static_cast<double>(cy);
      f.at(x, y) = std::exp(-(dx * dx + dy * dy) / 8.0);
    }
  }
  return f;
}

Index argmax_x(const grid::Field& f) {
  Index best = 0;
  double best_v = -1.0;
  for (Index i = 0; i < f.size(); ++i) {
    if (f[i] > best_v) {
      best_v = f[i];
      best = i;
    }
  }
  return f.grid().point_of(best).x;
}

TEST(Advection, ConstantFieldIsInvariant) {
  const grid::LatLonGrid mesh(24, 16);
  const AdvectionDiffusion dyn(mesh, {0.7, 0.3, 0.1});
  const grid::Field constant(mesh, 3.5);
  const grid::Field out = dyn.advance(constant, 10);
  for (Index i = 0; i < out.size(); ++i) EXPECT_NEAR(out[i], 3.5, 1e-12);
}

TEST(Advection, BlobMovesDownstream) {
  const grid::LatLonGrid mesh(48, 24);
  AdvectionDiffusionConfig cfg;
  cfg.u = 1.0;
  cfg.v = 0.0;
  cfg.diffusion = 0.0;
  const AdvectionDiffusion dyn(mesh, cfg);
  grid::Field state = blob(mesh, 10, 12);
  state = dyn.advance(std::move(state), 5);
  EXPECT_EQ(argmax_x(state), 15u);
}

TEST(Advection, PeriodicWrapAlongLongitude) {
  const grid::LatLonGrid mesh(20, 10);
  AdvectionDiffusionConfig cfg;
  cfg.u = 1.0;
  cfg.v = 0.0;
  cfg.diffusion = 0.0;
  const AdvectionDiffusion dyn(mesh, cfg);
  grid::Field state = blob(mesh, 18, 5);
  state = dyn.advance(std::move(state), 4);
  EXPECT_EQ(argmax_x(state), 2u);  // 18 + 4 mod 20
}

TEST(Advection, IntegerVelocityIsExactShift) {
  // With u integral and no diffusion the semi-Lagrangian step is an exact
  // permutation of the columns.
  const grid::LatLonGrid mesh(16, 8);
  AdvectionDiffusionConfig cfg;
  cfg.u = 3.0;
  cfg.v = 0.0;
  cfg.diffusion = 0.0;
  const AdvectionDiffusion dyn(mesh, cfg);
  senkf::Rng rng(5);
  const grid::Field state = grid::synthetic_field(mesh, rng);
  const grid::Field out = dyn.step(state);
  for (Index y = 0; y < mesh.ny(); ++y) {
    for (Index x = 0; x < mesh.nx(); ++x) {
      EXPECT_NEAR(out.at(x, y), state.at((x + 16 - 3) % 16, y), 1e-12);
    }
  }
}

TEST(Advection, DiffusionReducesExtremes) {
  const grid::LatLonGrid mesh(32, 16);
  AdvectionDiffusionConfig cfg;
  cfg.u = 0.0;
  cfg.v = 0.0;
  cfg.diffusion = 0.2;
  const AdvectionDiffusion dyn(mesh, cfg);
  grid::Field state = blob(mesh, 16, 8);
  const double max_before = state.at(16, 8);
  state = dyn.advance(std::move(state), 10);
  double max_after = 0.0;
  for (Index i = 0; i < state.size(); ++i) {
    max_after = std::max(max_after, state[i]);
  }
  EXPECT_LT(max_after, max_before);
  EXPECT_GT(max_after, 0.0);
}

TEST(Advection, DiffusionConservesMassWithPeriodicX) {
  const grid::LatLonGrid mesh(24, 12);
  AdvectionDiffusionConfig cfg;
  cfg.u = 0.5;
  cfg.v = 0.0;  // meridional flow breaks conservation at walls; avoid
  cfg.diffusion = 0.15;
  const AdvectionDiffusion dyn(mesh, cfg);
  grid::Field state = blob(mesh, 12, 6);
  double mass_before = 0.0;
  for (Index i = 0; i < state.size(); ++i) mass_before += state[i];
  state = dyn.advance(std::move(state), 6);
  double mass_after = 0.0;
  for (Index i = 0; i < state.size(); ++i) mass_after += state[i];
  EXPECT_NEAR(mass_after, mass_before, 0.05 * mass_before);
}

TEST(Advection, NoCflLimit) {
  // Velocities beyond one cell per step remain stable (semi-Lagrangian).
  const grid::LatLonGrid mesh(32, 16);
  AdvectionDiffusionConfig cfg;
  cfg.u = 5.7;
  cfg.v = 2.3;
  cfg.diffusion = 0.1;
  const AdvectionDiffusion dyn(mesh, cfg);
  senkf::Rng rng(9);
  grid::Field state = grid::synthetic_field(mesh, rng);
  state = dyn.advance(std::move(state), 20);
  for (Index i = 0; i < state.size(); ++i) {
    ASSERT_TRUE(std::isfinite(state[i]));
    ASSERT_LT(std::abs(state[i]), 100.0);
  }
}

TEST(Advection, InvalidConfigThrows) {
  const grid::LatLonGrid mesh(8, 8);
  EXPECT_THROW(AdvectionDiffusion(mesh, {0.0, 0.0, 0.3}),
               senkf::InvalidArgument);
  EXPECT_THROW(AdvectionDiffusion(mesh, {0.0, 0.0, -0.1}),
               senkf::InvalidArgument);
  EXPECT_THROW(AdvectionDiffusion(grid::LatLonGrid(1, 8), {}),
               senkf::InvalidArgument);
}

TEST(Advection, EnsembleAdvanceMatchesMemberwise) {
  const grid::LatLonGrid mesh(16, 8);
  const AdvectionDiffusion dyn(mesh, {0.4, 0.2, 0.05});
  senkf::Rng rng(11);
  const auto scenario = grid::synthetic_ensemble(mesh, 3, rng, 0.5);
  std::vector<grid::Field> ensemble = scenario.members;
  dyn.advance_ensemble(ensemble, 3);
  for (std::size_t k = 0; k < ensemble.size(); ++k) {
    const grid::Field individual = dyn.advance(scenario.members[k], 3);
    EXPECT_EQ(ensemble[k].data(), individual.data());
  }
}

// The per-point model the departure tables replaced, kept verbatim as the
// oracle: every point recomputes its departure point's wrap, reflection
// and bilinear weights, and the diffusion pass wraps with `%`.
struct ReferenceModel {
  double sample(const grid::Field& state, double x, double y) const;
  grid::Field step(const grid::Field& state) const;

  grid::LatLonGrid mesh_;
  AdvectionDiffusionConfig config_;
};

double ReferenceModel::sample(const grid::Field& state, double x,
                              double y) const {
  const double nx = static_cast<double>(mesh_.nx());
  const double ny = static_cast<double>(mesh_.ny());
  // Periodic along longitude.
  x = std::fmod(x, nx);
  if (x < 0.0) x += nx;
  // Reflective along latitude.
  if (y < 0.0) y = -y;
  const double y_max = ny - 1.0;
  if (y > y_max) y = 2.0 * y_max - y;
  y = std::clamp(y, 0.0, y_max);

  const Index x0 = static_cast<Index>(x) % mesh_.nx();
  const Index x1 = (x0 + 1) % mesh_.nx();
  const Index y0 = static_cast<Index>(y);
  const Index y1 = std::min(y0 + 1, mesh_.ny() - 1);
  const double fx = x - std::floor(x);
  const double fy = y - static_cast<double>(y0);

  return (1.0 - fx) * (1.0 - fy) * state.at(x0, y0) +
         fx * (1.0 - fy) * state.at(x1, y0) +
         (1.0 - fx) * fy * state.at(x0, y1) +
         fx * fy * state.at(x1, y1);
}

grid::Field ReferenceModel::step(const grid::Field& state) const {
  SENKF_REQUIRE(state.size() == mesh_.size(),
                "AdvectionDiffusion: field/mesh mismatch");
  // Semi-Lagrangian advection: trace each arrival point back along the
  // (constant) flow and interpolate there.
  grid::Field advected(mesh_);
  for (Index y = 0; y < mesh_.ny(); ++y) {
    for (Index x = 0; x < mesh_.nx(); ++x) {
      advected.at(x, y) = sample(state,
                                 static_cast<double>(x) - config_.u,
                                 static_cast<double>(y) - config_.v);
    }
  }
  if (config_.diffusion == 0.0) return advected;

  // Explicit 5-point diffusion with the same boundary treatment.
  grid::Field out(mesh_);
  const double kappa = config_.diffusion;
  for (Index y = 0; y < mesh_.ny(); ++y) {
    const Index y_up = y + 1 < mesh_.ny() ? y + 1 : y - 1;   // reflect
    const Index y_dn = y > 0 ? y - 1 : y + 1;                // reflect
    for (Index x = 0; x < mesh_.nx(); ++x) {
      const Index x_e = (x + 1) % mesh_.nx();
      const Index x_w = (x + mesh_.nx() - 1) % mesh_.nx();
      const double center = advected.at(x, y);
      const double laplacian = advected.at(x_e, y) + advected.at(x_w, y) +
                               advected.at(x, y_up) + advected.at(x, y_dn) -
                               4.0 * center;
      out.at(x, y) = center + kappa * laplacian;
    }
  }
  return out;
}

testing::AssertionResult bitwise_equal(const grid::Field& got,
                                       const grid::Field& want) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure() << "sizes differ";
  }
  if (std::memcmp(got.data().data(), want.data().data(),
                  got.size() * sizeof(double)) == 0) {
    return testing::AssertionSuccess();
  }
  Index i = 0;
  while (std::memcmp(&got.data()[i], &want.data()[i], sizeof(double)) == 0) {
    ++i;
  }
  return testing::AssertionFailure() << "first difference at flat index " << i;
}

struct ReferenceCase {
  Index nx;
  Index ny;
  AdvectionDiffusionConfig config;
};

std::string describe(const ReferenceCase& c) {
  std::ostringstream os;
  os << c.nx << "x" << c.ny << " u=" << c.config.u << " v=" << c.config.v
     << " diffusion=" << c.config.diffusion;
  return os.str();
}

TEST(Advection, StepMatchesVerbatimReference) {
  // Column 0 departs from 0 − 1e-17, which fmod keeps negative and the
  // wrap then rounds to exactly nx: x0 = nx % nx = 0 with zero weight.
  constexpr double kRoundsToNx = 1e-17;
  ASSERT_EQ(std::fmod(0.0 - kRoundsToNx, 20.0) + 20.0, 20.0);
  const std::vector<ReferenceCase> cases = {
      {360, 180, {0.8, 0.1, 0.02}},  // e2ebench's flow, ocean-det-files
      {180, 90, {0.8, 0.1, 0.02}},   // and ocean-stoch
      {32, 16, {5.7, 2.3, 0.1}},     // beyond one cell per step
      {16, 8, {3.0, 0.0, 0.0}},      // integer u, no diffusion
      {24, 12, {-0.45, -0.3, 0.1}},  // negative u and v
      {20, 12, {-21.3, 0.4, 0.05}},  // wraps more than once
      {24, 10, {0.3, 9.7, 0.05}},    // reflects off the far wall
      {24, 10, {0.3, -9.7, 0.05}},   // reflects, then clamps at row 0
      {2, 2, {0.6, 0.4, 0.2}},       // smallest mesh
      {20, 12, {kRoundsToNx, 0.25, 0.05}},
  };
  for (const ReferenceCase& c : cases) {
    SCOPED_TRACE(describe(c));
    const grid::LatLonGrid mesh(c.nx, c.ny);
    const AdvectionDiffusion dyn(mesh, c.config);
    const ReferenceModel reference_model{mesh, c.config};
    senkf::Rng rng(17);
    const auto scenario = grid::synthetic_ensemble(mesh, 3, rng, 0.5);
    const grid::Field& state = scenario.truth;

    std::vector<grid::Field> reference{state};
    for (Index s = 0; s < 20; ++s) {
      reference.push_back(reference_model.step(reference.back()));
    }
    EXPECT_TRUE(bitwise_equal(dyn.step(state), reference[1]));
    for (const Index steps : {Index{1}, Index{4}, Index{20}}) {
      SCOPED_TRACE("advance " + std::to_string(steps));
      EXPECT_TRUE(bitwise_equal(dyn.advance(state, steps), reference[steps]));
    }

    std::vector<grid::Field> ensemble = scenario.members;
    dyn.advance_ensemble(ensemble, 4);
    for (std::size_t k = 0; k < ensemble.size(); ++k) {
      SCOPED_TRACE("member " + std::to_string(k));
      grid::Field want = scenario.members[k];
      for (Index s = 0; s < 4; ++s) want = reference_model.step(want);
      EXPECT_TRUE(bitwise_equal(ensemble[k], want));
    }
  }
}

TEST(Advection, ZeroStepsAndMismatchedFields) {
  const grid::LatLonGrid mesh(16, 8);
  const AdvectionDiffusion dyn(mesh, {0.4, 0.2, 0.05});
  senkf::Rng rng(13);
  const grid::Field state = grid::synthetic_field(mesh, rng);
  EXPECT_TRUE(bitwise_equal(dyn.advance(state, 0), state));

  const grid::Field wrong(grid::LatLonGrid(17, 8), 1.0);
  EXPECT_THROW(dyn.step(wrong), senkf::InvalidArgument);
  EXPECT_THROW(dyn.advance(wrong, 1), senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::model
