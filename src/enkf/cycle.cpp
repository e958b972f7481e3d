#include "enkf/cycle.hpp"

#include <algorithm>
#include <cmath>

#include "enkf/diagnostics.hpp"
#include "enkf/verification.hpp"
#include "obs/perturbed.hpp"

namespace senkf::enkf {

CycleResult run_cycled_assimilation(const model::AdvectionDiffusion& dynamics,
                                    grid::Field truth,
                                    std::vector<grid::Field> ensemble,
                                    const CycleConfig& config) {
  SENKF_REQUIRE(config.cycles > 0, "cycled assimilation: need cycles");
  SENKF_REQUIRE(ensemble.size() >= 2,
                "cycled assimilation: need at least 2 members");

  SENKF_REQUIRE(!config.adaptive_inflation ||
                    (config.inflation_min >= 1.0 &&
                     config.inflation_max >= config.inflation_min),
                "cycled assimilation: bad adaptive inflation bounds");

  const Rng base_rng(config.seed);
  std::vector<grid::Field> free_run = ensemble;  // never assimilated
  SenkfConfig assimilation = config.assimilation;

  CycleResult result{{}, {}, truth};
  result.records.reserve(config.cycles);

  for (Index cycle = 0; cycle < config.cycles; ++cycle) {
    // Forecast: truth, assimilated ensemble and control advance together.
    truth = dynamics.advance(std::move(truth), config.steps_per_cycle);
    dynamics.advance_ensemble(ensemble, config.steps_per_cycle);
    dynamics.advance_ensemble(free_run, config.steps_per_cycle);

    // Observe the truth with a freshly drawn network (moving platforms).
    Rng cycle_rng = base_rng.child(1000 + cycle);
    const auto observations = obs::random_network(
        dynamics.mesh(), truth, cycle_rng, config.network);
    const auto ys = obs::perturbed_observations(
        observations, ensemble.size(), base_rng.child(2000 + cycle));

    CycleRecord record;
    record.background_rmse = mean_field_rmse(ensemble, truth);
    record.free_rmse = mean_field_rmse(free_run, truth);
    record.innovation_chi2 =
        innovation_statistics(ensemble, observations).normalized();

    if (config.adaptive_inflation) {
      // Quarter-power damping keeps the adjustment stable cycle-to-cycle.
      const double adjusted = assimilation.analysis.inflation *
                              std::pow(record.innovation_chi2, 0.25);
      assimilation.analysis.inflation =
          std::clamp(adjusted, config.inflation_min, config.inflation_max);
    }
    record.inflation_used = assimilation.analysis.inflation;

    // Analysis: S-EnKF over the in-memory store of this cycle's
    // background, which the analysis then replaces.
    const MemoryEnsembleStore store(dynamics.mesh(), std::move(ensemble));
    ensemble = senkf(store, observations, ys, assimilation);

    record.analysis_rmse = mean_field_rmse(ensemble, truth);
    record.spread = ensemble_spread(ensemble);
    result.records.push_back(record);
  }

  result.final_analysis = std::move(ensemble);
  result.final_truth = std::move(truth);
  return result;
}

}  // namespace senkf::enkf
