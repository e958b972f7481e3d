#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "enkf/local_analysis.hpp"
#include "enkf/senkf.hpp"
#include "enkf/verification.hpp"
#include "grid/decomposition.hpp"
#include "obs/local_obs_cache.hpp"
#include "obs/perturbed.hpp"
#include "support/stopwatch.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/metrics.hpp"

namespace e2e {

namespace {

senkf::grid::Decomposition decomposition_of(const Scenario& scenario) {
  return senkf::grid::Decomposition(scenario.mesh, scenario.run.n_sdx,
                                    scenario.run.n_sdy,
                                    scenario.run.analysis.halo);
}

std::uint64_t matrix_bytes(const senkf::linalg::Matrix& m) {
  return static_cast<std::uint64_t>(m.rows()) * m.cols() * sizeof(double);
}

}  // namespace

double PathSplit::sum_error() const {
  return wall_s > 0.0 ? std::abs(sum_s - wall_s) / wall_s : 1.0;
}

PathSplit critical_path_of_call(std::int64_t start_ns, std::int64_t end_ns) {
  namespace tm = senkf::telemetry;
  tm::CriticalPathOptions options;
  options.window_start_ns = start_ns;
  options.window_end_ns = end_ns;
  const tm::CriticalPathReport report =
      tm::analyze_critical_path(tm::collect_events(), options);

  PathSplit split;
  split.wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
  split.valid = report.valid && !report.truncated;
  for (const tm::PathSegment& segment : report.segments) {
    split.sum_s += segment.seconds();
  }
  split.compute_s = report.total_of(tm::PathKind::kCompute);
  split.disk_s = report.total_of(tm::PathKind::kDisk);
  split.comm_blocked_s = report.total_of(tm::PathKind::kCommBlocked);
  split.other_s = report.total_of(tm::PathKind::kOther);
  split.untracked_s = report.total_of(tm::PathKind::kUntracked);
  split.message_hops = report.message_hops;
  split.missing_edges = report.missing_edges;
  return split;
}

LocalizationReplay replay_localization(const Scenario& scenario) {
  senkf::obs::clear_localization_cache();
  const senkf::grid::Decomposition decomposition =
      decomposition_of(scenario);
  LocalizationReplay replay;
  for (const senkf::grid::SubdomainId id : decomposition.all_subdomains()) {
    for (Index l = 0; l < scenario.run.layers; ++l) {
      const senkf::grid::Rect expansion =
          decomposition.layer_expansion(id, l, scenario.run.layers);
      const senkf::Stopwatch watch;
      const auto local =
          senkf::obs::localized(scenario.observations, expansion);
      replay.seconds += watch.elapsed_seconds();
      ++replay.calls;
      replay.bytes += matrix_bytes(local->h()) + matrix_bytes(local->rinv_h());
      if (!local->empty()) replay.bytes += matrix_bytes(local->ht_rinv_h());
    }
  }
  return replay;
}

PatchReplay replay_local_analysis(const Scenario& scenario) {
  const senkf::grid::Decomposition decomposition =
      decomposition_of(scenario);
  const senkf::enkf::EnsembleStore& store = *scenario.store;
  const Index layers = scenario.run.layers;
  senkf::enkf::LocalAnalysisWorkspace& workspace =
      senkf::enkf::LocalAnalysisWorkspace::for_this_thread();
  const senkf::telemetry::Counter& allocs =
      senkf::telemetry::Registry::global().counter("analysis.alloc.events");

  PatchReplay replay;
  std::uint64_t allocs_before = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool measured = pass == 1;
    if (measured) allocs_before = allocs.value();
    for (const senkf::grid::SubdomainId id : decomposition.all_subdomains()) {
      for (Index l = 0; l < layers; ++l) {
        const senkf::grid::Rect target = decomposition.layer(id, l, layers);
        const senkf::grid::Rect expansion =
            decomposition.layer_expansion(id, l, layers);
        std::vector<senkf::grid::Patch> patches;
        patches.reserve(store.members());
        for (Index k = 0; k < store.members(); ++k) {
          patches.push_back(store.read_block(k, expansion));
        }
        const std::vector<senkf::grid::PatchView> views(patches.begin(),
                                                        patches.end());
        const senkf::Stopwatch watch;
        const senkf::enkf::AnalysisView view =
            senkf::enkf::local_analysis_scratch(
                views, expansion, target, scenario.observations,
                scenario.perturbed, scenario.run.analysis, workspace);
        const double seconds = watch.elapsed_seconds();
        if (!measured) continue;
        replay.patch_s.push_back(seconds);
        const double n_bar = static_cast<double>(expansion.count());
        replay.n_bar_mean += n_bar;
        replay.n_bar_max = std::max(replay.n_bar_max, n_bar);
        replay.m_bar_mean += static_cast<double>(view.local_observations);
      }
    }
  }
  const double patches = static_cast<double>(replay.patch_s.size());
  replay.n_bar_mean /= patches;
  replay.m_bar_mean /= patches;
  replay.allocs_per_patch =
      static_cast<double>(allocs.value() - allocs_before) / patches;
  return replay;
}

CycleReplay replay_cycles(const Scenario& scenario) {
  const senkf::enkf::CycleConfig& config = scenario.cycle;
  const senkf::model::AdvectionDiffusion& dynamics = scenario.dynamics;
  const senkf::Rng base_rng(config.seed);
  senkf::grid::Field truth = scenario.truth_and_background.truth;
  std::vector<senkf::grid::Field> ensemble =
      scenario.truth_and_background.members;
  std::vector<senkf::grid::Field> free_run = ensemble;

  CycleReplay replay;
  for (Index cycle = 0; cycle < config.cycles; ++cycle) {
    senkf::Stopwatch watch;
    truth = dynamics.advance(std::move(truth), config.steps_per_cycle);
    dynamics.advance_ensemble(ensemble, config.steps_per_cycle);
    dynamics.advance_ensemble(free_run, config.steps_per_cycle);
    replay.model_s += watch.elapsed_seconds();

    watch.reset();
    senkf::Rng cycle_rng = base_rng.child(1000 + cycle);
    const auto observations = senkf::obs::random_network(
        dynamics.mesh(), truth, cycle_rng, config.network);
    const auto ys = senkf::obs::perturbed_observations(
        observations, ensemble.size(), base_rng.child(2000 + cycle));
    senkf::enkf::innovation_statistics(ensemble, observations);
    replay.network_s += watch.elapsed_seconds();

    watch.reset();
    const senkf::enkf::MemoryEnsembleStore store(dynamics.mesh(), ensemble);
    ensemble = senkf::enkf::senkf(store, observations, ys, config.assimilation);
    replay.senkf_s += watch.elapsed_seconds();
  }
  const double cycles = static_cast<double>(config.cycles);
  replay.model_s /= cycles;
  replay.network_s /= cycles;
  replay.senkf_s /= cycles;
  replay.final_analysis = std::move(ensemble);
  return replay;
}

}  // namespace e2e
