// Fig. 9 companion — measured vs modelled phase times (ISSUE 2).
//
// Unlike fig09_phase_breakdown (which reports the DES plane), this bench
// runs the *numeric-plane* S-EnKF on thread-backed ranks and takes its
// per-stage phase times from each call's run ledger (SenkfStats'
// io_read / io_send / comp_update seconds), then compares them against
// the §4.3 cost model, equations (7)–(10).
//
// The model's constants (θ, a, b, c) describe the paper's Tianhe-2, not
// this host, so they are first calibrated by ratio on a baseline
// configuration; the baseline row therefore shows ~0% error by
// construction, and every other row measures how well the model's
// *scaling shape* in L, n_cg and n_sdx matches reality on a real machine.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "enkf/senkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"
#include "support/table.hpp"
#include "tuning/cost_model.hpp"

namespace {

using namespace senkf;

// Small enough to run in seconds, big enough that update dominates noise.
constexpr grid::Index kNx = 48;
constexpr grid::Index kNy = 24;
constexpr grid::Index kMembers = 12;
constexpr int kRepeats = 3;

struct Phases {
  double read = 0.0;  ///< per I/O rank, per stage (seconds)
  double comm = 0.0;
  double comp = 0.0;  ///< per computation rank, per stage
};

struct Workload {
  grid::LatLonGrid g{kNx, kNy};
  grid::SyntheticEnsemble scenario;
  obs::ObservationSet observations;
  linalg::Matrix ys;
  enkf::MemoryEnsembleStore store;

  Workload()
      : scenario([this] {
          senkf::Rng rng(21);
          return grid::synthetic_ensemble(g, kMembers, rng, 0.5);
        }()),
        observations([this] {
          senkf::Rng rng(22);
          obs::NetworkOptions opt;
          opt.station_count = 80;
          opt.error_std = 0.05;
          return obs::random_network(g, scenario.truth, rng, opt);
        }()),
        ys(obs::perturbed_observations(observations, kMembers,
                                       senkf::Rng(23))),
        store(g, scenario.members) {}
};

// Best-of-kRepeats run, normalized to per-rank per-stage seconds so the
// measurement matches the model's per-stage quantities regardless of rank
// counts.  Best-of damps scheduler noise the same way micro benches do.
Phases measure(const Workload& w, const enkf::SenkfConfig& config) {
  Phases best;
  double best_total = -1.0;
  for (int i = 0; i < kRepeats; ++i) {
    enkf::SenkfStats stats;
    (void)enkf::senkf(w.store, w.observations, w.ys, config, &stats);
    const double io_norm =
        static_cast<double>(config.io_ranks() * config.layers);
    const double comp_norm =
        static_cast<double>(config.computation_ranks() * config.layers);
    Phases run;
    run.read = stats.io_read_seconds / io_norm;
    run.comm = stats.io_send_seconds / io_norm;
    run.comp = stats.comp_update_seconds / comp_norm;
    const double total = run.read + run.comm + run.comp;
    if (best_total < 0.0 || total < best_total) {
      best_total = total;
      best = run;
    }
  }
  return best;
}

vcluster::SenkfParams model_params(const enkf::SenkfConfig& config) {
  vcluster::SenkfParams p;
  p.n_sdx = static_cast<std::uint64_t>(config.n_sdx);
  p.n_sdy = static_cast<std::uint64_t>(config.n_sdy);
  p.layers = static_cast<std::uint64_t>(config.layers);
  p.n_cg = static_cast<std::uint64_t>(config.n_cg);
  return p;
}

enkf::SenkfConfig make_config(grid::Index n_sdx, grid::Index n_sdy, grid::Index layers,
                              grid::Index n_cg) {
  enkf::SenkfConfig c;
  c.n_sdx = n_sdx;
  c.n_sdy = n_sdy;
  c.layers = layers;
  c.n_cg = n_cg;
  c.analysis.halo = grid::Halo{2, 1};
  return c;
}

double rel_error(double measured, double predicted) {
  if (measured == 0.0) return 0.0;
  return (predicted - measured) / measured;
}

}  // namespace

int main() {
  const Workload w;

  // Model workload = the real run's workload; cluster constants start at
  // the paper defaults and are rescaled on the baseline below.
  tuning::CostModelParams mp;
  mp.members = kMembers;
  mp.nx = kNx;
  mp.ny = kNy;

  // Baseline: single group, single layer — nothing overlaps, so every
  // phase is cleanly attributable.
  const enkf::SenkfConfig baseline = make_config(4, 2, 1, 1);
  const Phases base_measured = measure(w, baseline);
  {
    const tuning::CostModel uncalibrated(mp);
    const auto p0 = model_params(baseline);
    mp.theta *= base_measured.read / uncalibrated.t_read(p0);
    const double comm_scale =
        base_measured.comm / uncalibrated.t_comm(p0);
    mp.a *= comm_scale;
    mp.b *= comm_scale;
    mp.c *= base_measured.comp / uncalibrated.t_comp(p0);
  }
  const tuning::CostModel model(mp);

  const std::vector<enkf::SenkfConfig> sweep = {
      baseline,
      make_config(4, 2, 2, 2),
      make_config(4, 2, 3, 2),
      make_config(4, 2, 6, 2),
      make_config(4, 2, 1, 6),
      make_config(8, 2, 3, 2),
      make_config(2, 4, 3, 3),
  };

  Table table({"params (sdx,sdy,L,cg)", "read_ms", "read_pred", "read_err",
               "comm_ms", "comm_pred", "comm_err", "comp_ms", "comp_pred",
               "comp_err"});
  double abs_err_sum = 0.0;
  int err_count = 0;
  bool first = true;
  for (const auto& config : sweep) {
    // The baseline row reuses the calibration measurement, so its errors
    // are exactly the calibration residual (~0).
    const Phases measured = first ? base_measured : measure(w, config);
    first = false;
    const auto p = model_params(config);
    const Phases predicted{model.t_read(p), model.t_comm(p), model.t_comp(p)};

    const double errors[] = {rel_error(measured.read, predicted.read),
                             rel_error(measured.comm, predicted.comm),
                             rel_error(measured.comp, predicted.comp)};
    for (const double e : errors) {
      abs_err_sum += std::abs(e);
      ++err_count;
    }
    const std::string params = std::to_string(config.n_sdx) + "," +
                               std::to_string(config.n_sdy) + "," +
                               std::to_string(config.layers) + "," +
                               std::to_string(config.n_cg);
    table.add_row({params, Table::num(measured.read * 1e3),
                   Table::num(predicted.read * 1e3), Table::percent(errors[0]),
                   Table::num(measured.comm * 1e3),
                   Table::num(predicted.comm * 1e3), Table::percent(errors[1]),
                   Table::num(measured.comp * 1e3),
                   Table::num(predicted.comp * 1e3),
                   Table::percent(errors[2])});
  }

  table.print(std::cout,
              "Figure 9 companion: measured (telemetry) vs cost model, "
              "eq. (7)-(10)");
  std::cout << "Mean |rel error| over " << err_count << " phase cells: "
            << Table::percent(abs_err_sum / err_count) << "\n";
  std::cout << "Baseline row (4,2,1,1) is the calibration point (errors ~0 "
               "by construction); other rows test the model's scaling in "
               "L, n_cg and n_sdx.  Expected shape: the model over-predicts "
               "small stages — eq. (9) is linear in stage rows, but the "
               "measured update shrinks superlinearly with L because the "
               "local-observation solve cost falls with stage height; "
               "in-memory sends likewise make eq. (8) an upper bound.\n";
  return 0;
}
