#include "scenario.hpp"

#include "enkf/file_store.hpp"
#include "enkf/lenkf.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "grid/local_box.hpp"
#include "obs/perturbed.hpp"

namespace e2e {

namespace {

using senkf::enkf::AnalysisKind;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// The two ocean workloads share a decomposition and differ in what binds
// the wall: the dense stochastic kernel, or bar/block reads, scatter and
// stage waits over a file store.  Their cycled calls use the same store
// and localization layers write-then-read with a cold cache.  Shares
// split the measured seconds so each engine gets enough calls for a
// steady median and S-EnKF enough for its tail.
const WorkloadSpec kWorkloads[] = {
    {.name = "ocean-stoch", .nx = 180, .ny = 90, .dx_km = 22.0,
     .dy_km = 22.0, .members = 16, .stations = 800, .obs_error_std = 0.08,
     .bilinear_obs = true, .radius_km = 60.0, .background_error = 0.4,
     .correlation_length_km = 600.0, .field_mean = 15.0, .n_sdx = 6,
     .n_sdy = 3, .layers = 3, .n_cg = 4,
     .kind = AnalysisKind::kStochasticModifiedCholesky, .file_store = false,
     .inflation = 1.0, .cycles = 1, .steps_per_cycle = 4,
     .engine_share = {0.12, 0.1, 0.1, 0.43}, .cycle_share = 0.25},
    {.name = "ocean-det-files", .nx = 360, .ny = 180, .dx_km = 22.0,
     .dy_km = 22.0, .members = 32, .stations = 3000, .obs_error_std = 0.08,
     .bilinear_obs = true, .radius_km = 60.0, .background_error = 0.4,
     .correlation_length_km = 600.0, .field_mean = 15.0, .n_sdx = 6,
     .n_sdy = 3, .layers = 3, .n_cg = 4,
     .kind = AnalysisKind::kDeterministicTransform, .file_store = true,
     .inflation = 1.0, .cycles = 1, .steps_per_cycle = 4,
     .engine_share = {0.13, 0.13, 0.13, 0.21}, .cycle_share = 0.4},
};

// Every rank already has its own thread, and each workload has more ranks
// than a few-core host has cores.  A wider analysis pool would only add
// threads per rank, and call times would then measure how the host
// schedules them.  Width 1 runs each rank's layer analyses inline.
constexpr Index kAnalysisThreads = 1;

senkf::grid::SyntheticEnsemble draw_scenario(
    const WorkloadSpec& spec, const senkf::grid::LatLonGrid& mesh,
    std::uint64_t seed) {
  senkf::Rng rng(seed);
  senkf::grid::SyntheticFieldOptions field;
  field.correlation_length_km = spec.correlation_length_km;
  field.mean = spec.field_mean;
  return senkf::grid::synthetic_ensemble(mesh, spec.members, rng,
                                         spec.background_error, field);
}

senkf::obs::NetworkOptions network_of(const WorkloadSpec& spec) {
  senkf::obs::NetworkOptions net;
  net.station_count = spec.stations;
  net.error_std = spec.obs_error_std;
  net.bilinear = spec.bilinear_obs;
  return net;
}

senkf::obs::ObservationSet draw_network(const WorkloadSpec& spec,
                                        const senkf::grid::LatLonGrid& mesh,
                                        const senkf::grid::Field& truth,
                                        std::uint64_t seed) {
  senkf::Rng rng(seed);
  return senkf::obs::random_network(mesh, truth, rng, network_of(spec));
}

senkf::model::AdvectionDiffusionConfig flow() {
  senkf::model::AdvectionDiffusionConfig config;
  config.u = 0.8;
  config.v = 0.1;
  config.diffusion = 0.02;
  return config;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kSerial:
      return "serial";
    case Engine::kLenkf:
      return "lenkf";
    case Engine::kPenkf:
      return "penkf";
    case Engine::kSenkf:
      return "senkf";
  }
  return "?";
}

Scenario::Scenario(const WorkloadSpec& workload, std::uint64_t seed,
                   const std::filesystem::path& data_dir)
    : spec(workload),
      mesh(workload.nx, workload.ny, workload.dx_km, workload.dy_km),
      truth_and_background(draw_scenario(workload, mesh, seed)),
      observations(draw_network(workload, mesh, truth_and_background.truth,
                                seed + 1)),
      perturbed(senkf::obs::perturbed_observations(
          observations, workload.members, senkf::Rng(seed + 2))),
      dynamics(mesh, flow()) {
  if (spec.file_store) {
    ensemble_dir = data_dir / spec.name;
    store = std::make_unique<senkf::enkf::FileEnsembleStore>(
        senkf::enkf::write_ensemble(mesh, truth_and_background.members,
                                    ensemble_dir));
  } else {
    store = std::make_unique<senkf::enkf::MemoryEnsembleStore>(
        mesh, truth_and_background.members);
  }

  run.n_sdx = spec.n_sdx;
  run.n_sdy = spec.n_sdy;
  run.layers = spec.layers;
  run.analysis.kind = spec.kind;
  run.analysis.halo = senkf::grid::halo_for_radius(mesh, spec.radius_km);
  run.analysis.inflation = spec.inflation;
  run.analysis_threads = kAnalysisThreads;

  senkf_run.n_sdx = spec.n_sdx;
  senkf_run.n_sdy = spec.n_sdy;
  senkf_run.layers = spec.layers;
  senkf_run.n_cg = spec.n_cg;
  senkf_run.analysis = run.analysis;
  senkf_run.analysis_threads = kAnalysisThreads;

  cycle.cycles = spec.cycles;
  cycle.steps_per_cycle = spec.steps_per_cycle;
  cycle.network = network_of(spec);
  cycle.assimilation = senkf_run;
  cycle.seed = seed + 100;
}

Scenario::~Scenario() {
  store.reset();
  if (!ensemble_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(ensemble_dir, ignored);
  }
}

std::vector<senkf::grid::Field> run_engine(
    Engine engine, const Scenario& scenario,
    const senkf::enkf::EnsembleStore& store,
    senkf::enkf::SenkfStats* stats) {
  switch (engine) {
    case Engine::kSerial:
      return senkf::enkf::serial_enkf(store, scenario.observations,
                                      scenario.perturbed, scenario.run);
    case Engine::kLenkf:
      return senkf::enkf::lenkf(store, scenario.observations,
                                scenario.perturbed, scenario.run);
    case Engine::kPenkf:
      return senkf::enkf::penkf(store, scenario.observations,
                                scenario.perturbed, scenario.run);
    case Engine::kSenkf:
      return senkf::enkf::senkf(store, scenario.observations,
                                scenario.perturbed, scenario.senkf_run, stats);
  }
  return {};
}

senkf::enkf::CycleResult run_cycles(const Scenario& scenario) {
  return senkf::enkf::run_cycled_assimilation(
      scenario.dynamics, scenario.truth_and_background.truth,
      scenario.truth_and_background.members, scenario.cycle);
}

}  // namespace e2e
