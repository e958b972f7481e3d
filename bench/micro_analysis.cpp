// Micro-benchmarks of the local analysis kernel (google-benchmark):
// stochastic modified-Cholesky (P-EnKF's scheme, eq. (6)) vs the
// deterministic ensemble transform, across expansion sizes and ensemble
// sizes, plus the patch shape of the end-to-end ocean-stoch workload, a
// cold observation localization and the per-cycle innovation χ² at both
// end-to-end workloads' networks, the model forecast a cycle runs
// before its analysis, and the synthetic scenario a set-up draws.
// These are the per-stage compute costs the "c" constant of the cost
// model abstracts.
// Each entry also reports patches/sec (items_per_second) and a
// steady-state allocs/patch counter read from the analysis.alloc.events
// telemetry delta — the same signal the alloc-budget ctest gate asserts
// is zero, here visible per shape in the nightly JSON.
#include <benchmark/benchmark.h>

#include "enkf/local_analysis.hpp"
#include "enkf/verification.hpp"
#include "grid/synthetic.hpp"
#include "model/advection.hpp"
#include "obs/local_obs.hpp"
#include "obs/perturbed.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace senkf;

struct Fixture {
  grid::LatLonGrid mesh;
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;
  linalg::Matrix ys;
  std::vector<grid::PatchView> background;  ///< whole-mesh member views

  Fixture(grid::Index nx, grid::Index ny, grid::Index members,
          grid::Index stations, bool bilinear)
      : mesh(nx, ny),
        scenario(make_scenario(mesh, members)),
        observations(make_obs(mesh, scenario.truth, stations, bilinear)),
        ys(obs::perturbed_observations(observations, members, Rng(3))) {
    for (const auto& member : scenario.members) {
      background.emplace_back(mesh.bounds(), member.data());
    }
  }

  static grid::SyntheticEnsemble make_scenario(const grid::LatLonGrid& mesh,
                                               grid::Index members) {
    Rng rng(1);
    return grid::synthetic_ensemble(mesh, members, rng, 0.5);
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& mesh,
                                      const grid::Field& truth,
                                      grid::Index stations, bool bilinear) {
    Rng rng(2);
    obs::NetworkOptions opt;
    opt.station_count = stations;
    opt.bilinear = bilinear;
    return obs::random_network(mesh, truth, rng, opt);
  }
};

void run_kernel(benchmark::State& state, const Fixture& fixture,
                enkf::AnalysisKind kind, grid::Halo halo) {
  enkf::AnalysisOptions options;
  options.kind = kind;
  options.halo = halo;
  enkf::LocalAnalysisWorkspace& ws =
      enkf::LocalAnalysisWorkspace::for_this_thread();
  const grid::Rect whole = fixture.mesh.bounds();
  const auto analyze = [&] {
    return enkf::local_analysis_scratch(fixture.background, whole, whole,
                                        fixture.observations, fixture.ys,
                                        options, ws);
  };
  // One warm call puts arena growth, localization build and counter
  // registration outside the measured region (and outside the
  // allocs-per-patch delta).
  benchmark::DoNotOptimize(analyze());
  auto& registry = telemetry::Registry::global();
  const auto allocs0 = registry.counter_value("analysis.alloc.events");
  const auto patches0 = registry.counter_value("analysis.patches");
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze());
  }
  const double patches =
      static_cast<double>(registry.counter_value("analysis.patches") - patches0);
  const double allocs = static_cast<double>(
      registry.counter_value("analysis.alloc.events") - allocs0);
  state.SetItemsProcessed(state.iterations());  // one patch per iteration
  state.counters["allocs_per_patch"] = patches > 0 ? allocs / patches : 0.0;
  state.SetLabel(std::to_string(fixture.mesh.size()) + " points");
}

/// Square side×side expansion, point stations on one point in eight,
/// halo {2,1}.
void run_kernel(benchmark::State& state, enkf::AnalysisKind kind) {
  const auto side = static_cast<grid::Index>(state.range(0));
  const auto members = static_cast<grid::Index>(state.range(1));
  const Fixture fixture(side, side, members, side * side / 8, false);
  run_kernel(state, fixture, kind, grid::Halo{2, 1});
}

void BM_StochasticModifiedCholesky(benchmark::State& state) {
  run_kernel(state, enkf::AnalysisKind::kStochasticModifiedCholesky);
}
BENCHMARK(BM_StochasticModifiedCholesky)
    ->Args({8, 10})
    ->Args({12, 10})
    ->Args({16, 10})
    ->Args({12, 40});

// The patch shape of the end-to-end ocean-stoch workload (e2ebench): a
// 30×10 layer plus a 3-point halo on every side is a 36×16 expansion
// (n̄ = 576), N = 16, halo {3,3}, bilinear stations at that workload's
// density (800 on 180×90): L's rows reach η·W+ξ = 111 points back,
// with p ≈ 20–24 predecessors each, and the patch holds m̄ ≈ 28 stations.
void BM_StochasticModifiedCholeskyOceanPatch(benchmark::State& state) {
  const Fixture fixture(36, 16, 16, 36 * 16 * 800 / (180 * 90), true);
  run_kernel(state, fixture,
             enkf::AnalysisKind::kStochasticModifiedCholesky,
             grid::Halo{3, 3});
}
BENCHMARK(BM_StochasticModifiedCholeskyOceanPatch);

void BM_DeterministicTransform(benchmark::State& state) {
  run_kernel(state, enkf::AnalysisKind::kDeterministicTransform);
}
BENCHMARK(BM_DeterministicTransform)
    ->Args({8, 10})
    ->Args({12, 10})
    ->Args({16, 10})
    ->Args({12, 40});

// Innovation χ² of a background against a full network, as
// run_cycled_assimilation computes it once per cycle, at the networks of
// the end-to-end workloads (e2ebench): (m, N) = (800, 16) on
// ocean-stoch's 180×90 mesh and (3000, 32) on ocean-det-files' 360×180,
// bilinear stations.
void BM_InnovationStatistics(benchmark::State& state) {
  const auto stations = static_cast<grid::Index>(state.range(0));
  const auto members = static_cast<grid::Index>(state.range(1));
  const grid::Index nx = stations <= 800 ? 180 : 360;
  const Fixture fixture(nx, nx / 2, members, stations, true);
  const auto& ensemble = fixture.scenario.members;
  const auto& network = fixture.observations;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enkf::innovation_statistics(ensemble, network));
  }
  const std::string label =
      "m=" + std::to_string(stations) + " N=" + std::to_string(members);
  state.SetLabel(label);
}
BENCHMARK(BM_InnovationStatistics)->Args({800, 16})->Args({3000, 32});

// A cold localization — what obs::localized builds on a cache miss — of
// one layer expansion of each end-to-end workload (e2ebench): a 66×26
// window of ocean-det-files' 3000 bilinear stations on 360×180, and a
// 36×16 window of ocean-stoch's 800 on 180×90.
void BM_LocalizeObservations(benchmark::State& state) {
  const auto stations = static_cast<grid::Index>(state.range(0));
  const auto width = static_cast<grid::Index>(state.range(1));
  const auto height = static_cast<grid::Index>(state.range(2));
  const grid::Index nx = stations <= 800 ? 180 : 360;
  const Fixture fixture(nx, nx / 2, 2, stations, true);
  const grid::Rect expansion{{width, 2 * width}, {height, 2 * height}};
  grid::Index selected = 0;
  for (auto _ : state) {
    const obs::LocalObservations local(fixture.observations, expansion);
    benchmark::DoNotOptimize(local);
    selected = local.size();
  }
  state.SetLabel("m=" + std::to_string(stations) +
                 " n_bar=" + std::to_string(expansion.count()) +
                 " m_bar=" + std::to_string(selected));
}
BENCHMARK(BM_LocalizeObservations)
    ->Args({3000, 66, 26})
    ->Args({800, 36, 16});

// The forecast of one cycle of the end-to-end workloads (e2ebench): 4
// steps of the advection–diffusion model at their flow (u, v, κ) =
// (0.8, 0.1, 0.02) for the truth, N members and N control members — 33
// fields on ocean-stoch's 180×90 mesh, 65 on ocean-det-files' 360×180.
// items_per_second counts grid points advanced one step.
void BM_ModelForecast(benchmark::State& state) {
  const auto nx = static_cast<grid::Index>(state.range(0));
  const auto fields = static_cast<grid::Index>(state.range(1));
  constexpr grid::Index kSteps = 4;
  const grid::LatLonGrid mesh(nx, nx / 2);
  const model::AdvectionDiffusion dynamics(mesh, {0.8, 0.1, 0.02});
  Rng rng(4);
  std::vector<grid::Field> forecast =
      grid::synthetic_ensemble(mesh, fields, rng, 0.5).members;
  for (auto _ : state) {
    for (grid::Field& field : forecast) {
      field = dynamics.advance(std::move(field), kSteps);
    }
    benchmark::DoNotOptimize(forecast.front().data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fields * kSteps) *
                          static_cast<std::int64_t>(mesh.size()));
  state.SetLabel(std::to_string(fields) + " fields " + std::to_string(nx) +
                 "x" + std::to_string(nx / 2));
}
BENCHMARK(BM_ModelForecast)
    ->Args({180, 33})
    ->Args({360, 65})
    ->Unit(benchmark::kMillisecond);

// The synthetic scenario each end-to-end workload (e2ebench) draws in its
// set-up: a truth and N members of 24 modes each, (nx, N) = (180, 16) on
// ocean-stoch's 180×90 mesh and (360, 32) on ocean-det-files' 360×180,
// with their correlation length, mean and background error.
// items_per_second counts grid points generated.
void BM_SyntheticEnsemble(benchmark::State& state) {
  const auto nx = static_cast<grid::Index>(state.range(0));
  const auto members = static_cast<grid::Index>(state.range(1));
  const grid::LatLonGrid mesh(nx, nx / 2, 22.0, 22.0);
  grid::SyntheticFieldOptions options;
  options.correlation_length_km = 600.0;
  options.mean = 15.0;
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(
        grid::synthetic_ensemble(mesh, members, rng, 0.4, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(members + 1) *
                          static_cast<std::int64_t>(mesh.size()));
  state.SetLabel(std::to_string(members + 1) + " fields " +
                 std::to_string(nx) + "x" + std::to_string(nx / 2));
}
BENCHMARK(BM_SyntheticEnsemble)
    ->Args({180, 16})
    ->Args({360, 32})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
