#include "obs/observation.hpp"

#include <atomic>
#include <cmath>
#include <set>

namespace senkf::obs {

namespace {
std::uint64_t next_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

double ObsComponent::apply(const grid::Field& field) const {
  double sum = 0.0;
  for (const auto& sp : support) {
    sum += sp.weight * field.at(sp.point.x, sp.point.y);
  }
  return sum;
}

double ObsComponent::apply(const grid::Patch& patch) const {
  double sum = 0.0;
  for (const auto& sp : support) {
    SENKF_REQUIRE(patch.rect().contains(sp.point.x, sp.point.y),
                  "ObsComponent::apply: support outside patch");
    sum += sp.weight * patch.at(sp.point.x, sp.point.y);
  }
  return sum;
}

bool ObsComponent::supported_by(grid::Rect rect) const {
  for (const auto& sp : support) {
    if (!rect.contains(sp.point.x, sp.point.y)) return false;
  }
  return true;
}

ObservationSet::ObservationSet(grid::LatLonGrid grid_def,
                               std::vector<ObsComponent> comps,
                               std::vector<double> values)
    : grid_(grid_def),
      components_(std::move(comps)),
      values_(std::move(values)),
      epoch_(next_epoch()) {
  SENKF_REQUIRE(components_.size() == values_.size(),
                "ObservationSet: one value per component required");
  // Non-finite numbers would load silently and poison every analysis
  // that selects the station, so they are rejected with the rest.
  for (const double value : values_) {
    SENKF_REQUIRE(std::isfinite(value), "ObservationSet: non-finite value");
  }
  for (const auto& comp : components_) {
    SENKF_REQUIRE(!comp.support.empty(),
                  "ObservationSet: component without support");
    SENKF_REQUIRE(std::isfinite(comp.error_std) && comp.error_std > 0.0,
                  "ObservationSet: error std must be positive and finite");
    for (const auto& sp : comp.support) {
      SENKF_REQUIRE(sp.point.x < grid_.nx() && sp.point.y < grid_.ny(),
                    "ObservationSet: support outside grid");
      SENKF_REQUIRE(std::isfinite(sp.weight),
                    "ObservationSet: non-finite support weight");
    }
  }
}

ObservationSet random_network(const grid::LatLonGrid& grid_def,
                              const grid::Field& truth, Rng& rng,
                              const NetworkOptions& options) {
  SENKF_REQUIRE(options.station_count > 0,
                "random_network: need at least one station");
  SENKF_REQUIRE(options.station_count <= grid_def.size(),
                "random_network: more stations than grid points");

  std::vector<ObsComponent> comps;
  std::vector<double> values;
  comps.reserve(options.station_count);
  values.reserve(options.station_count);

  std::set<Index> used;
  while (comps.size() < options.station_count) {
    const Index x = rng.uniform_index(grid_def.nx());
    const Index y = rng.uniform_index(grid_def.ny());
    if (!used.insert(grid_def.flat_index(x, y)).second) continue;

    ObsComponent comp;
    comp.error_std = options.error_std;
    if (options.bilinear && x + 1 < grid_def.nx() && y + 1 < grid_def.ny()) {
      // Offset sampling location inside the cell; bilinear corner weights.
      const double fx = rng.uniform();
      const double fy = rng.uniform();
      comp.support = {
          {{x, y}, (1 - fx) * (1 - fy)},
          {{x + 1, y}, fx * (1 - fy)},
          {{x, y + 1}, (1 - fx) * fy},
          {{x + 1, y + 1}, fx * fy},
      };
    } else {
      comp.support = {{{x, y}, 1.0}};
    }
    const double clean = comp.apply(truth);
    values.push_back(clean + rng.normal(0.0, comp.error_std));
    comps.push_back(std::move(comp));
  }
  return ObservationSet(grid_def, std::move(comps), std::move(values));
}

}  // namespace senkf::obs
