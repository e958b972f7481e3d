// Observability walkthrough: run a small S-EnKF assimilation with tracing
// armed, export the span record as Chrome trace JSON (load it in Perfetto
// or chrome://tracing), and print the metrics registry in its /metrics
// text form.
//
// The same effect without code changes, on any senkf binary:
//   SENKF_TRACE=my_trace.json ./quickstart     # export at process exit
//   SENKF_LOG=debug           ./quickstart     # verbose stamped logging
//
// Fault injection rides the same zero-code-change rail: set SENKF_FAULTS
// (e.g. "seed=1,transient=0.05,burst=2" or "dead=3") and the run goes
// through a fault-injecting store — retries, stragglers and drops show up
// in the trace and under pfs_fault_* / senkf_read_* in the registry dump.
#include <exception>
#include <iostream>
#include <optional>

#include "enkf/faulty_store.hpp"
#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"
#include "telemetry/liveops/exposition.hpp"
#include "telemetry/trace.hpp"

namespace {

int run() {
  using namespace senkf;

  const grid::LatLonGrid g{48, 24};
  constexpr grid::Index kMembers = 8;
  senkf::Rng rng(31);
  const auto scenario = grid::synthetic_ensemble(g, kMembers, rng, 0.5);
  senkf::Rng obs_rng(32);
  obs::NetworkOptions network;
  network.station_count = 80;
  network.error_std = 0.05;
  const auto observations =
      obs::random_network(g, scenario.truth, obs_rng, network);
  const auto ys =
      obs::perturbed_observations(observations, kMembers, senkf::Rng(33));
  const enkf::MemoryEnsembleStore store(g, scenario.members);

  enkf::SenkfConfig config;
  config.n_sdx = 4;
  config.n_sdy = 2;
  config.layers = 3;
  config.n_cg = 2;
  config.analysis.halo = grid::Halo{2, 1};

  // SENKF_FAULTS (when set) wraps the store in the fault-injecting
  // decorator; the pipeline's retry/degrade machinery does the rest.
  const std::optional<pfs::FaultPlan> faults = pfs::fault_plan_from_env();
  std::optional<enkf::FaultyEnsembleStore> faulty;
  if (faults.has_value()) {
    std::cout << "Injecting faults: " << pfs::to_spec(*faults) << "\n";
    faulty.emplace(store, *faults);
  }
  const enkf::EnsembleStore& active =
      faulty.has_value() ? static_cast<const enkf::EnsembleStore&>(*faulty)
                         : store;

  // Arm tracing programmatically (equivalent to SENKF_TRACE=on).
  telemetry::set_tracing_enabled(true);

  enkf::SenkfStats stats;
  const auto analysis = senkf::enkf::senkf(active, observations, ys, config,
                                           &stats);
  telemetry::set_tracing_enabled(false);

  const std::string trace_path = "traced_run.json";
  telemetry::write_chrome_trace(trace_path);

  const auto events = telemetry::collect_events();
  std::cout << "S-EnKF finished: " << analysis.size() << " members, "
            << config.total_ranks() << " ranks, " << events.size()
            << " spans recorded.\n";
  std::cout << "Chrome trace written to " << trace_path
            << " (open in Perfetto / chrome://tracing).\n\n";

  std::cout << "Phase stats (telemetry-derived facade):\n"
            << "  io_read     " << stats.io_read_seconds << " s\n"
            << "  io_send     " << stats.io_send_seconds << " s\n"
            << "  comp_wait   " << stats.comp_wait_seconds << " s\n"
            << "  comp_update " << stats.comp_update_seconds << " s\n"
            << "  messages    " << stats.messages << "\n"
            << "  retries     " << stats.read_retries << "\n"
            << "  dropped     " << stats.dropped_members.size() << "\n\n";

  std::cout << "Metrics registry (/metrics exposition):\n"
            << telemetry::liveops::render_prometheus();
  return 0;
}

}  // namespace

// A malformed SENKF_FAULTS spec, or a read the plan makes unrecoverable,
// ends the run with the error's message and exit status 1.
int main() {
  try {
    return run();
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
}
