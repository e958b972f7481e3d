// Live cost-model drift (DESIGN.md §11): compares measured per-rank
// per-stage phase times against equations (7)–(9) and publishes the
// relative errors as `model.drift.{read,comm,comp}` gauges.  Unlike
// bench/fig09_measured_vs_model, no calibration happens here: the drift
// *is* the calibration residual.
#pragma once

#include "tuning/cost_model.hpp"

namespace senkf::tuning {

/// (measured − predicted) / predicted per phase; 0 when the model
/// predicts 0.  Positive = reality slower than the model.
struct PhaseDrift {
  double read = 0.0;
  double comm = 0.0;
  double comp = 0.0;
};

/// Evaluates the model at `p` against the measured per-rank per-stage
/// seconds (read/comm per I/O rank, comp per computation rank — the
/// model's native normalization, see fig09) and publishes the drift as
/// `model.drift.{read,comm,comp}` gauges into the global registry (0.25
/// = +25%).
PhaseDrift record_model_drift(const CostModel& model,
                              const vcluster::SenkfParams& p,
                              double measured_read_s, double measured_comm_s,
                              double measured_comp_s);

}  // namespace senkf::tuning
