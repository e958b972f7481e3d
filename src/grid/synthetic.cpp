#include "grid/synthetic.hpp"

#include <cmath>
#include <numbers>

namespace senkf::grid {

namespace {
struct Mode {
  double kx;     // radians per grid step along x
  double ky;     // radians per grid step along y
  double phase;  // radians
  double weight;
};

std::vector<Mode> draw_modes(const LatLonGrid& grid, Rng& rng,
                             const SyntheticFieldOptions& options) {
  SENKF_REQUIRE(options.modes > 0, "synthetic_field: need at least one mode");
  SENKF_REQUIRE(options.correlation_length_km > 0.0,
                "synthetic_field: correlation length must be positive");
  // Largest admissible wavenumber so that the shortest wavelength is the
  // correlation length.
  const double kx_max =
      2.0 * std::numbers::pi * grid.dx_km() / options.correlation_length_km;
  const double ky_max =
      2.0 * std::numbers::pi * grid.dy_km() / options.correlation_length_km;

  std::vector<Mode> modes(options.modes);
  double weight_sq_sum = 0.0;
  for (auto& mode : modes) {
    mode.kx = rng.uniform(-kx_max, kx_max);
    mode.ky = rng.uniform(-ky_max, ky_max);
    mode.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    // Red spectrum: favour the long wavelengths that dominate geophysical
    // fields (pressure-like long-distance correlations, §1 of the paper).
    const double k_norm = std::hypot(mode.kx / kx_max, mode.ky / ky_max);
    mode.weight = 1.0 / (1.0 + 4.0 * k_norm * k_norm);
    weight_sq_sum += 0.5 * mode.weight * mode.weight;  // E[cos²] = 1/2
  }
  // Normalize so the field variance equals amplitude².
  const double scale = options.amplitude / std::sqrt(weight_sq_sum);
  for (auto& mode : modes) mode.weight *= scale;
  return modes;
}

/// Adds Σ weight·cos(kx·x + ky·y + phase) over `modes` onto `field`.  The
/// identity cos(a + b) = cos a·cos b − sin a·sin b separates each mode
/// into a column table (a = kx·x) and a row pair (b = ky·y + phase), so a
/// mode costs 2·(nx + ny) trig calls and two multiply-adds per point.
void add_modes(Field& field, const std::vector<Mode>& modes) {
  const Index nx = field.grid().nx();
  const Index ny = field.grid().ny();
  std::vector<double> cos_x(nx), sin_x(nx);
  for (const Mode& mode : modes) {
    for (Index x = 0; x < nx; ++x) {
      const double kx_x = mode.kx * static_cast<double>(x);
      cos_x[x] = std::cos(kx_x);
      sin_x[x] = std::sin(kx_x);
    }
    for (Index y = 0; y < ny; ++y) {
      const double ky_y = mode.ky * static_cast<double>(y) + mode.phase;
      const double c = mode.weight * std::cos(ky_y);
      const double s = mode.weight * std::sin(ky_y);
      double* row = field.data().data() + y * nx;
      for (Index x = 0; x < nx; ++x) row[x] += c * cos_x[x] - s * sin_x[x];
    }
  }
}
}  // namespace

Field synthetic_field(const LatLonGrid& grid, Rng& rng,
                      const SyntheticFieldOptions& options) {
  Field field(grid, options.mean);
  add_modes(field, draw_modes(grid, rng, options));
  return field;
}

SyntheticEnsemble synthetic_ensemble(const LatLonGrid& grid, Index n_members,
                                     Rng& rng, double background_error,
                                     const SyntheticFieldOptions& options) {
  SENKF_REQUIRE(n_members >= 2, "synthetic_ensemble: need >= 2 members");
  SENKF_REQUIRE(background_error >= 0.0,
                "synthetic_ensemble: error must be >= 0");
  SyntheticEnsemble out{synthetic_field(grid, rng, options), {}};
  out.members.reserve(n_members);

  SyntheticFieldOptions perturbation = options;
  perturbation.amplitude = background_error;
  for (Index k = 0; k < n_members; ++k) {
    Rng member_rng = rng.child(k + 1);
    // The member's correlated error goes straight onto its copy of the
    // truth, with no intermediate noise field.
    Field member = out.truth;
    add_modes(member, draw_modes(grid, member_rng, perturbation));
    out.members.push_back(std::move(member));
  }
  return out;
}

}  // namespace senkf::grid
