// Observability walkthrough (DESIGN.md §11): run S-EnKF with an injected
// straggler, so the run-end straggler check WARNs once per stage, then
// print what the run ledger gives — per-rank phase table, read skew,
// helper-thread backlog — and the measured-vs-model drift table.  Stalls
// are caught live, while a stage is still stuck, by the SENKF_WATCHDOG
// stall watchdog (DESIGN.md §16).
//
// The same data lands on disk with zero code changes on any binary:
//   SENKF_REPORT=report.json ./monitored_run   # machine-readable report
//   SENKF_WATCHDOG=on        ./monitored_run   # live stall deadlines
//   SENKF_FAULTS="straggler=0:0.03" ./monitored_run   # pick the delay
//   SENKF_TRACE=trace.json   ./monitored_run   # flow-event trace export
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>

#include "enkf/faulty_store.hpp"
#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"

namespace {

int run() {
  using namespace senkf;

  const grid::LatLonGrid g{48, 24};
  constexpr grid::Index kMembers = 8;
  senkf::Rng rng(51);
  const auto scenario = grid::synthetic_ensemble(g, kMembers, rng, 0.5);
  senkf::Rng obs_rng(52);
  obs::NetworkOptions network;
  network.station_count = 80;
  network.error_std = 0.05;
  const auto observations =
      obs::random_network(g, scenario.truth, obs_rng, network);
  const auto ys =
      obs::perturbed_observations(observations, kMembers, senkf::Rng(53));
  const enkf::MemoryEnsembleStore store(g, scenario.members);

  enkf::SenkfConfig config;
  config.n_sdx = 4;
  config.n_sdy = 2;
  config.layers = 3;
  config.n_cg = 2;
  config.analysis.halo = grid::Halo{2, 1};

  // Default demo: I/O rank ordinal 0 pays 20 ms per bar read, so every
  // stage's read skew trips the straggler check — watch for one "read
  // straggler" WARN line per stage just before the tables below.
  // SENKF_FAULTS (when set) overrides the demo plan.
  std::optional<pfs::FaultPlan> faults = pfs::fault_plan_from_env();
  if (!faults.has_value()) faults = pfs::parse_fault_plan("straggler=0:0.02");
  std::cout << "Injecting faults: " << pfs::to_spec(*faults) << "\n";
  const enkf::FaultyEnsembleStore faulty(store, *faults);

  // Arm tracing so the run computes its critical-path attribution even
  // without SENKF_TRACE (the export still needs the env var).
  telemetry::set_tracing_enabled(true);

  enkf::SenkfStats stats;
  const auto analysis = enkf::senkf(faulty, observations, ys, config, &stats);
  std::cout << "\nAnalysis members: " << analysis.size() << "\n\n";

  // Per-rank phase table straight from the run ledger.
  std::printf("%5s %5s %5s %9s %9s %9s %9s %9s %8s\n", "rank", "io", "grp",
              "read_s", "obtain_s", "send_s", "wait_s", "update_s", "msgs");
  for (const auto& r : stats.ranks) {
    std::printf("%5d %5d %5d %9.4f %9.4f %9.4f %9.4f %9.4f %8llu\n", r.rank,
                static_cast<int>(r.is_io), r.group, r.read_s, r.obtain_s,
                r.send_s, r.wait_s, r.update_s,
                static_cast<unsigned long long>(r.messages));
  }

  std::cout << "\nStraggler WARNs raised: " << stats.straggler_warns
            << "\nWhole-run read skew (slowest/mean): " << stats.read_skew
            << "\n";

  // Drift table: measured per-rank per-stage phase seconds vs the
  // uncalibrated cost model (eqs. (7)-(9)); large values are expected —
  // the gap *is* the residual a calibration of the model must close.
  const telemetry::RunReport report = telemetry::run_report_copy();
  std::cout << "\nModel drift (measured vs eqs. (7)-(9), relative):\n";
  for (const auto& [phase, rel] : report.drift) {
    std::printf("  %-5s %+9.3f\n", phase.c_str(), rel);
  }

  // Critical-path attribution (DESIGN.md §13): where this cycle's wall
  // clock actually went, walked backward through waits and message edges.
  std::cout << "\nCritical path per cycle:\n";
  for (const auto& cp : telemetry::critical_paths_copy()) {
    std::printf(
        "  cycle %llu: wall %.4fs = compute %.4f + disk %.4f + "
        "comm-blocked %.4f + other %.4f + untracked %.4f  (%llu hops, "
        "%llu missing edges)\n",
        static_cast<unsigned long long>(cp.cycle), cp.wall_s, cp.compute_s,
        cp.disk_s, cp.comm_blocked_s, cp.other_s, cp.untracked_s,
        static_cast<unsigned long long>(cp.message_hops),
        static_cast<unsigned long long>(cp.missing_edges));
    for (const auto& c : cp.top) {
      std::printf("    rank %2d  %-16s %9.4fs\n", c.rank, c.phase.c_str(),
                  c.seconds);
    }
  }

  std::cout << "\nStraggler gauges:\n  senkf.skew.stage_read = "
            << telemetry::Registry::global().gauge_value("senkf.skew.stage_read")
            << " (slowest / mean)\n  senkf.straggler.last_rank = "
            << telemetry::Registry::global().gauge_value(
                   "senkf.straggler.last_rank")
            << "\n";
  if (telemetry::report_export_path().empty()) {
    std::cout << "\nSet SENKF_REPORT=report.json to export all of the above "
                 "as versioned JSON.\n";
  }
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
