// Workload definitions and the inputs the benchmark generates from a seed.
//
// A workload fixes a problem (grid, ensemble size, observation network,
// decomposition, analysis scheme, store backend and the cycled-run
// shape); the seed draws the truth, the background ensemble and the
// observations.  Every workload runs the same four engines and the same
// cycled loop on its own problem, so every end-to-end metric is defined
// on every workload.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "enkf/cycle.hpp"
#include "enkf/serial_enkf.hpp"
#include "grid/synthetic.hpp"
#include "model/advection.hpp"

namespace e2e {

using senkf::grid::Index;

struct WorkloadSpec {
  const char* name;
  Index nx, ny;
  double dx_km, dy_km;          ///< grid spacing (sets the halo in cells)
  Index members;
  Index stations;
  double obs_error_std;
  bool bilinear_obs;
  double radius_km;
  double background_error;
  double correlation_length_km;
  double field_mean;
  Index n_sdx, n_sdy, layers, n_cg;
  senkf::enkf::AnalysisKind kind;
  bool file_store;              ///< FileEnsembleStore written at setup
  double inflation;
  Index cycles;                 ///< cycles per run_cycled_assimilation call
  Index steps_per_cycle;
  /// Shares of the measured seconds: single analysis calls per engine,
  /// indexed like kEngines (serial, L, P, S), and cycled calls.
  double engine_share[4];
  double cycle_share;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(std::string_view name);
std::vector<std::string> workload_names();

enum class Engine { kSerial, kLenkf, kPenkf, kSenkf };
inline constexpr Engine kEngines[] = {Engine::kSerial, Engine::kLenkf,
                                      Engine::kPenkf, Engine::kSenkf};
const char* engine_name(Engine engine);

/// Everything one workload run analyses, generated from the seed.
struct Scenario {
  Scenario(const WorkloadSpec& spec, std::uint64_t seed,
           const std::filesystem::path& data_dir);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const WorkloadSpec& spec;
  senkf::grid::LatLonGrid mesh;
  senkf::grid::SyntheticEnsemble truth_and_background;
  senkf::obs::ObservationSet observations;
  senkf::linalg::Matrix perturbed;
  std::filesystem::path ensemble_dir;  ///< empty for the memory store
  std::unique_ptr<senkf::enkf::EnsembleStore> store;
  senkf::enkf::EnkfRunConfig run;
  senkf::enkf::SenkfConfig senkf_run;
  senkf::model::AdvectionDiffusion dynamics;
  senkf::enkf::CycleConfig cycle;
};

/// One analysis of the scenario's background by `engine`, reading
/// through `store` (the scenario's own store, or a decorator over it).
std::vector<senkf::grid::Field> run_engine(
    Engine engine, const Scenario& scenario,
    const senkf::enkf::EnsembleStore& store,
    senkf::enkf::SenkfStats* stats = nullptr);

/// One run_cycled_assimilation call from the scenario's truth and
/// background.
senkf::enkf::CycleResult run_cycles(const Scenario& scenario);

}  // namespace e2e
