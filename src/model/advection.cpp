#include "model/advection.hpp"

#include <algorithm>
#include <cmath>

namespace senkf::model {

AdvectionDiffusion::AdvectionDiffusion(const grid::LatLonGrid& mesh,
                                       const AdvectionDiffusionConfig& config)
    : mesh_(mesh), config_(config) {
  SENKF_REQUIRE(config.diffusion >= 0.0 && config.diffusion <= 0.25,
                "AdvectionDiffusion: diffusion number must be in [0, 0.25]");
  SENKF_REQUIRE(mesh.nx() >= 2 && mesh.ny() >= 2,
                "AdvectionDiffusion: mesh too small");

  const double nx = static_cast<double>(mesh_.nx());
  departure_x_.reserve(mesh_.nx());
  for (Index col = 0; col < mesh_.nx(); ++col) {
    // Periodic along longitude.
    double x = std::fmod(static_cast<double>(col) - config_.u, nx);
    if (x < 0.0) x += nx;
    const Index x0 = static_cast<Index>(x) % mesh_.nx();
    const Index x1 = (x0 + 1) % mesh_.nx();
    const double fx = x - std::floor(x);
    departure_x_.push_back({x0, x1, 1.0 - fx, fx});
  }

  const double y_max = static_cast<double>(mesh_.ny()) - 1.0;
  departure_y_.reserve(mesh_.ny());
  for (Index row = 0; row < mesh_.ny(); ++row) {
    // Reflective along latitude.
    double y = static_cast<double>(row) - config_.v;
    if (y < 0.0) y = -y;
    if (y > y_max) y = 2.0 * y_max - y;
    y = std::clamp(y, 0.0, y_max);
    const Index y0 = static_cast<Index>(y);
    const Index y1 = std::min(y0 + 1, mesh_.ny() - 1);
    const double fy = y - static_cast<double>(y0);
    departure_y_.push_back({y0, y1, 1.0 - fy, fy});
  }
}

void AdvectionDiffusion::step_in_place(grid::Field& state,
                                       grid::Field& scratch) const {
  SENKF_REQUIRE(state.size() == mesh_.size(),
                "AdvectionDiffusion: field/mesh mismatch");
  const Index nx = mesh_.nx();
  const Index ny = mesh_.ny();

  // Semi-Lagrangian advection: trace each arrival point back along the
  // (constant) flow and interpolate bilinearly there.
  const double* in = state.data().data();
  double* advected = scratch.data().data();
  for (Index y = 0; y < ny; ++y) {
    const Departure dy = departure_y_[y];
    const double* lo_row = in + dy.lo * nx;
    const double* hi_row = in + dy.hi * nx;
    double* out = advected + y * nx;
    for (Index x = 0; x < nx; ++x) {
      const Departure& dx = departure_x_[x];
      out[x] = dx.w_lo * dy.w_lo * lo_row[dx.lo] +
               dx.w_hi * dy.w_lo * lo_row[dx.hi] +
               dx.w_lo * dy.w_hi * hi_row[dx.lo] +
               dx.w_hi * dy.w_hi * hi_row[dx.hi];
    }
  }
  if (config_.diffusion == 0.0) {
    state.data().swap(scratch.data());
    return;
  }

  // Explicit 5-point diffusion back into `state` with the same boundary
  // treatment: the two edge columns wrap, so the interior needs no
  // modulo.
  const double kappa = config_.diffusion;
  double* diffused = state.data().data();
  for (Index y = 0; y < ny; ++y) {
    const Index y_up = y + 1 < ny ? y + 1 : y - 1;  // reflect
    const Index y_dn = y > 0 ? y - 1 : y + 1;       // reflect
    const double* row = advected + y * nx;
    const double* up = advected + y_up * nx;
    const double* dn = advected + y_dn * nx;
    double* out = diffused + y * nx;
    const auto diffuse = [&](Index x, Index x_e, Index x_w) {
      const double center = row[x];
      const double laplacian =
          row[x_e] + row[x_w] + up[x] + dn[x] - 4.0 * center;
      out[x] = center + kappa * laplacian;
    };
    diffuse(0, 1, nx - 1);
    for (Index x = 1; x + 1 < nx; ++x) diffuse(x, x + 1, x - 1);
    diffuse(nx - 1, 0, nx - 2);
  }
}

grid::Field AdvectionDiffusion::step(const grid::Field& state) const {
  return advance(state, 1);
}

grid::Field AdvectionDiffusion::advance(grid::Field state,
                                        Index steps) const {
  if (steps == 0) return state;
  grid::Field scratch(mesh_);
  for (Index s = 0; s < steps; ++s) step_in_place(state, scratch);
  return state;
}

void AdvectionDiffusion::advance_ensemble(std::vector<grid::Field>& members,
                                          Index steps) const {
  if (steps == 0) return;
  grid::Field scratch(mesh_);
  for (auto& member : members) {
    for (Index s = 0; s < steps; ++s) step_in_place(member, scratch);
  }
}

}  // namespace senkf::model
