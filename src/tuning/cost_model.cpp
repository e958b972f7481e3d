#include "tuning/cost_model.hpp"

#include <cmath>

#include "net/net.hpp"

namespace senkf::tuning {

namespace {
/// Tree-depth log factor, floored at 1 (see the header's rationale).
double log_factor(std::uint64_t n) {
  SENKF_REQUIRE(n > 0, "CostModel: log factor of 0");
  const int depth = net::Net::log2_ceil(static_cast<int>(n));
  return depth < 1 ? 1.0 : static_cast<double>(depth);
}
}  // namespace

CostModelParams params_from(const vcluster::MachineConfig& machine,
                            const vcluster::SimWorkload& workload) {
  CostModelParams params;
  params.members = workload.members;
  params.nx = workload.nx;
  params.ny = workload.ny;
  params.a = machine.net.alpha;
  params.b = machine.net.beta;
  params.c = machine.update_cost_per_point_s;
  params.theta = 1.0 / machine.pfs.ost.stream_bandwidth;
  params.h = workload.point_bytes();
  params.xi = workload.halo_xi;
  params.eta = workload.halo_eta;
  return params;
}

CostModel::CostModel(const CostModelParams& params) : params_(params) {
  SENKF_REQUIRE(params.members > 0 && params.nx > 0 && params.ny > 0,
                "CostModel: workload dimensions must be positive");
  SENKF_REQUIRE(params.a >= 0 && params.b >= 0 && params.c > 0 &&
                    params.theta > 0 && params.h > 0,
                "CostModel: cost constants must be positive");
}

double CostModel::stage_rows(const vcluster::SenkfParams& p) const {
  return static_cast<double>(params_.ny) /
             (static_cast<double>(p.n_sdy) * static_cast<double>(p.layers)) +
         2.0 * static_cast<double>(params_.eta);
}

bool CostModel::feasible(const vcluster::SenkfParams& p) const {
  if (p.n_sdx == 0 || p.n_sdy == 0 || p.layers == 0 || p.n_cg == 0) {
    return false;
  }
  if (params_.nx % p.n_sdx != 0) return false;
  if (params_.ny % p.n_sdy != 0) return false;
  if (params_.members % p.n_cg != 0) return false;
  if ((params_.ny / p.n_sdy) % p.layers != 0) return false;
  return true;
}

double CostModel::t_read(const vcluster::SenkfParams& p) const {
  SENKF_REQUIRE(feasible(p), "CostModel::t_read: infeasible parameters");
  const double files_per_group = static_cast<double>(params_.members) /
                                 static_cast<double>(p.n_cg);
  return stage_rows(p) * static_cast<double>(params_.nx) * params_.h *
         files_per_group * params_.theta * log_factor(p.n_cg * p.n_sdy);
}

double CostModel::t_comm(const vcluster::SenkfParams& p) const {
  SENKF_REQUIRE(feasible(p), "CostModel::t_comm: infeasible parameters");
  const double files_per_group = static_cast<double>(params_.members) /
                                 static_cast<double>(p.n_cg);
  const double block_cols = static_cast<double>(params_.nx) /
                                static_cast<double>(p.n_sdx) +
                            2.0 * static_cast<double>(params_.xi);
  const double message_bytes =
      stage_rows(p) * block_cols * files_per_group * params_.h;
  return static_cast<double>(p.n_sdx) * log_factor(p.n_cg + 1) *
         (params_.a + params_.b * message_bytes);
}

double CostModel::t_comp(const vcluster::SenkfParams& p) const {
  SENKF_REQUIRE(feasible(p), "CostModel::t_comp: infeasible parameters");
  return params_.c *
         (static_cast<double>(params_.ny) /
          (static_cast<double>(p.n_sdy) * static_cast<double>(p.layers))) *
         (static_cast<double>(params_.nx) / static_cast<double>(p.n_sdx));
}

double CostModel::t1(const vcluster::SenkfParams& p) const {
  return t_read(p) + t_comm(p);
}

double CostModel::t_total(const vcluster::SenkfParams& p) const {
  return t1(p) + static_cast<double>(p.layers) * t_comp(p);
}

double CostModel::t_pipeline(const vcluster::SenkfParams& p) const {
  const double stage_io = t1(p);
  const double stage_comp = t_comp(p);
  return stage_io +
         static_cast<double>(p.layers - 1) * std::max(stage_comp, stage_io) +
         stage_comp;
}

PhaseDeadlines phase_deadlines(const CostModel& model,
                               const vcluster::SenkfParams& p,
                               double floor_s) {
  SENKF_REQUIRE(floor_s >= 0.0, "phase_deadlines: need floor_s >= 0");
  PhaseDeadlines d;
  d.read_s = std::max(model.t_read(p), floor_s);
  d.stage_s = std::max(model.t1(p) + model.t_comp(p), floor_s);
  return d;
}

}  // namespace senkf::tuning
