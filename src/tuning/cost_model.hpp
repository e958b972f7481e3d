// Cost models of the multi-stage computation (paper §4.3, Table 1).
//
// Equations (7)–(10) are implemented verbatim:
//
//   T_read  = ((n_y/(n_sdy·L) + 2η) · n_x · h · N/n_cg · θ) · log(n_cg·n_sdy)
//   T_comm  = n_sdx · log(n_cg + 1)
//               · (a + b · (n_y/(n_sdy·L) + 2η) · (n_x/n_sdx + 2ξ)
//                        · N/n_cg · h)
//   T_comp  = c · n_y/(n_sdy·L) · n_x/n_sdx
//   T_total = T_read + T_comm + L · T_comp
//
// `log` is the base-2 tree depth of the classic collective models the
// paper extends, floored at 1 so a single-reader configuration keeps its
// physical cost (log 1 = 0 would predict free reads; the paper's
// experiments never touch that corner).
#pragma once

#include <cstdint>

#include "vcluster/machine.hpp"
#include "vcluster/workflows.hpp"

namespace senkf::tuning {

/// Table 1's variables, bundled.
struct CostModelParams {
  std::uint64_t members = 120;  ///< N
  std::uint64_t nx = 3600;      ///< grid points along longitude
  std::uint64_t ny = 1800;      ///< grid points along latitude
  double a = 2e-6;              ///< startup time per message (s)
  double b = 1e-10;             ///< transfer time per byte (s)
  double c = 1.0e-3;            ///< computation cost per grid point (s),
                                ///< calibrated on the scalar kernels
  /// SIMD + analysis-pool speedup dividing T_comp (eq. (9)): the faster
  /// the compute phase, the earlier the pipeline leaves the
  /// compute-bound regime where reads and communication hide for free —
  /// which shifts the auto-tuner toward more I/O ranks.  1.0 = the
  /// scalar baseline `c` was calibrated on.
  double analysis_speedup = 1.0;
  /// Probability a bar read draws a transient fault and must be retried
  /// (pfs::FaultPlan::transient_p).  Each read costs 1/(1−p) expected
  /// attempts (geometric retries), so T_read (eq. (7)) is scaled by that
  /// factor — a degraded file system shifts the tuner toward more I/O
  /// ranks exactly as a slower disk would.  0 = the paper's fault-free
  /// machine; backoff sleeps are not modelled (they are microseconds
  /// against millisecond reads).
  double transient_read_p = 0.0;
  double theta = 2.5e-9;        ///< disk-to-memory transfer time per byte (s)
  double h = 8.0;               ///< bytes per grid point
  std::uint64_t xi = 4;         ///< ξ
  std::uint64_t eta = 2;        ///< η
};

/// Derives the model constants from a simulated machine + workload, so the
/// model curve and the DES "test data" describe the same system (Fig. 12).
CostModelParams params_from(const vcluster::MachineConfig& machine,
                            const vcluster::SimWorkload& workload);

class CostModel {
 public:
  explicit CostModel(const CostModelParams& params);

  const CostModelParams& params() const { return params_; }

  /// Equation (7).
  double t_read(const vcluster::SenkfParams& p) const;

  /// Equation (8).
  double t_comm(const vcluster::SenkfParams& p) const;

  /// Equation (9): one stage of local analysis.
  double t_comp(const vcluster::SenkfParams& p) const;

  /// T₁ = T_read + T_comm — the objective of optimization problem (11).
  double t1(const vcluster::SenkfParams& p) const;

  /// Equation (10), verbatim: T₁ + L · T_comp.  Note that L · T_comp is
  /// constant in L, so under this objective alone larger L is always at
  /// least as good — the published formula assumes reading and
  /// communication always hide behind computation.
  double t_total(const vcluster::SenkfParams& p) const;

  /// Pipeline-aware total used by the auto-tuner:
  ///
  ///   T₁ + (L − 1) · max(T_comp, T_read + T_comm) + T_comp
  ///
  /// — prologue, steady-state pipeline, final drain.  Wherever the
  /// paper's overlap assumption holds (per-stage read+comm ≤ per-stage
  /// compute) the max resolves to T_comp and this is *identical* to
  /// equation (10); outside that regime it charges the I/O-bound stages
  /// the published formula ignores (see DESIGN.md).
  double t_pipeline(const vcluster::SenkfParams& p) const;

  /// True if `p` satisfies every divisibility constraint of Algorithm 1
  /// (n_sdy | n_y, n_sdx | n_x, n_cg | N, L | n_y/n_sdy).
  bool feasible(const vcluster::SenkfParams& p) const;

 private:
  double stage_rows(const vcluster::SenkfParams& p) const;

  CostModelParams params_;
};

/// Per-phase stall deadlines for the liveops watchdog (DESIGN.md §16):
/// the cost model's per-stage predictions, floored at `floor_s` so the
/// sub-millisecond predictions of test-sized grids don't fire on
/// ordinary scheduling noise.  The watchdog multiplies its
/// SENKF_WATCHDOG safety scale on top at arm time — these are the raw
/// "should have finished by now" estimates.
struct PhaseDeadlines {
  double read_s = 0.0;   ///< one rank's bar reads for one stage (eq. (7))
  double comm_s = 0.0;   ///< one stage's scatter/gather (eq. (8))
  double comp_s = 0.0;   ///< one stage's local analysis (eq. (9))
  double stage_s = 0.0;  ///< one full stage end-to-end (read+comm+comp)
  double cycle_s = 0.0;  ///< whole cycle (pipeline-aware total)
};
PhaseDeadlines phase_deadlines(const CostModel& model,
                               const vcluster::SenkfParams& p,
                               double floor_s = 0.05);

}  // namespace senkf::tuning
