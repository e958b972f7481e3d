// A minimal geophysical dynamical core: 2-D advection–diffusion.
//
// EnKF is a *sequential* method: analyses become the initial conditions
// of the next model integration (§1).  This module provides the model
// for the forecast step of cycled experiments: semi-Lagrangian advection
// (unconditionally stable — departure points with bilinear
// interpolation) plus explicit diffusion, periodic along longitude and
// reflective along latitude, matching the lat-lon storage conventions of
// grid::Field.
#pragma once

#include <vector>

#include "grid/field.hpp"

namespace senkf::model {

using grid::Index;

struct AdvectionDiffusionConfig {
  /// Zonal / meridional velocity in grid cells per step.  Values may be
  /// fractional or exceed 1 — semi-Lagrangian stepping has no CFL limit.
  double u = 0.7;
  double v = 0.15;
  /// Non-dimensional diffusion number κ·Δt/Δx² per step; explicit
  /// stepping requires ≤ 0.25.
  double diffusion = 0.02;
};

class AdvectionDiffusion {
 public:
  AdvectionDiffusion(const grid::LatLonGrid& mesh,
                     const AdvectionDiffusionConfig& config = {});

  const grid::LatLonGrid& mesh() const { return mesh_; }
  const AdvectionDiffusionConfig& config() const { return config_; }

  /// One step: advect along the flow, then diffuse.
  grid::Field step(const grid::Field& state) const;

  /// `steps` repeated applications.
  grid::Field advance(grid::Field state, Index steps) const;

  /// Advances every ensemble member in place.
  void advance_ensemble(std::vector<grid::Field>& members,
                        Index steps) const;

 private:
  /// Where one arrival column (or row) departs from along x (or y): the
  /// two grid indices bracketing its departure point and their bilinear
  /// weights 1 − f and f.
  struct Departure {
    Index lo = 0;
    Index hi = 0;
    double w_lo = 0.0;
    double w_hi = 0.0;
  };

  /// One step of `state` in place: advects it into `scratch`, then
  /// diffuses `scratch` back into it.  Both fields span the mesh.
  void step_in_place(grid::Field& state, grid::Field& scratch) const;

  grid::LatLonGrid mesh_;
  AdvectionDiffusionConfig config_;
  /// The flow is constant, so column x always departs from x − u
  /// (periodic) and row y from y − v (reflective): one entry per column
  /// and one per row, built by the constructor.
  std::vector<Departure> departure_x_;
  std::vector<Departure> departure_y_;
};

}  // namespace senkf::model
