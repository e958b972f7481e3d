#include "tuning/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace senkf::tuning {
namespace {

CostModelParams simple_params() {
  CostModelParams p;
  p.members = 24;
  p.nx = 360;
  p.ny = 180;
  p.a = 1e-5;
  p.b = 1e-9;
  p.c = 1e-4;
  p.theta = 2.5e-9;
  p.h = 8.0;
  p.xi = 4;
  p.eta = 2;
  return p;
}

vcluster::SenkfParams simple_point() {
  vcluster::SenkfParams sp;
  sp.n_sdx = 12;
  sp.n_sdy = 6;
  sp.layers = 5;
  sp.n_cg = 6;
  return sp;
}

TEST(CostModel, ReadFormulaVerbatim) {
  const CostModelParams p = simple_params();
  const CostModel model(p);
  const auto sp = simple_point();
  // stage rows = 180/(6·5) + 2·2 = 10; files/group = 4; log2(36)→6.
  const double expected = 10.0 * 360.0 * 8.0 * 4.0 * p.theta * 6.0;
  EXPECT_NEAR(model.t_read(sp), expected, 1e-12);
}

TEST(CostModel, CommFormulaVerbatim) {
  const CostModelParams p = simple_params();
  const CostModel model(p);
  const auto sp = simple_point();
  // block cols = 360/12 + 2·4 = 38; message = 10·38·4·8 bytes;
  // log2(6+1)→3; times n_sdx = 12.
  const double message_bytes = 10.0 * 38.0 * 4.0 * 8.0;
  const double expected = 12.0 * 3.0 * (p.a + p.b * message_bytes);
  EXPECT_NEAR(model.t_comm(sp), expected, 1e-15);
}

TEST(CostModel, CompFormulaVerbatim) {
  const CostModel model(simple_params());
  const auto sp = simple_point();
  // c · (180/(6·5)) · (360/12) = 1e-4 · 6 · 30.
  EXPECT_NEAR(model.t_comp(sp), 1e-4 * 6.0 * 30.0, 1e-15);
}

TEST(CostModel, TotalCombinesPhases) {
  const CostModel model(simple_params());
  const auto sp = simple_point();
  EXPECT_NEAR(model.t_total(sp),
              model.t_read(sp) + model.t_comm(sp) +
                  static_cast<double>(sp.layers) * model.t_comp(sp),
              1e-15);
  EXPECT_NEAR(model.t1(sp), model.t_read(sp) + model.t_comm(sp), 1e-15);
}

TEST(CostModel, PhaseDeadlinesAreTheStagePredictionsFloored) {
  const CostModel model(simple_params());
  const auto sp = simple_point();
  const PhaseDeadlines raw = phase_deadlines(model, sp, 0.0);
  EXPECT_DOUBLE_EQ(raw.read_s, model.t_read(sp));
  EXPECT_DOUBLE_EQ(raw.stage_s, model.t1(sp) + model.t_comp(sp));
  const PhaseDeadlines floored = phase_deadlines(model, sp, 1e3);
  EXPECT_DOUBLE_EQ(floored.read_s, 1e3);
  EXPECT_DOUBLE_EQ(floored.stage_s, 1e3);
}

TEST(CostModel, FeasibilityConstraints) {
  const CostModel model(simple_params());
  auto sp = simple_point();
  EXPECT_TRUE(model.feasible(sp));
  sp.n_sdx = 7;  // 360 % 7 != 0
  EXPECT_FALSE(model.feasible(sp));
  sp = simple_point();
  sp.n_sdy = 7;  // 180 % 7 != 0
  EXPECT_FALSE(model.feasible(sp));
  sp = simple_point();
  sp.n_cg = 5;  // 24 % 5 != 0
  EXPECT_FALSE(model.feasible(sp));
  sp = simple_point();
  sp.layers = 7;  // 30 % 7 != 0
  EXPECT_FALSE(model.feasible(sp));
  sp = simple_point();
  sp.layers = 0;
  EXPECT_FALSE(model.feasible(sp));
  EXPECT_THROW(model.t_read(sp), senkf::InvalidArgument);
}

TEST(CostModel, ReadDecreasesWithMoreGroups) {
  // T_total decreasing in n_cg is the monotonicity §4.4 argues from.
  const CostModel model(simple_params());
  auto sp = simple_point();
  sp.n_cg = 1;
  const double t1 = model.t_read(sp);
  sp.n_cg = 6;
  const double t6 = model.t_read(sp);
  sp.n_cg = 24;
  const double t24 = model.t_read(sp);
  EXPECT_GT(t1, t6);
  EXPECT_GT(t6, t24);
}

TEST(CostModel, MoreLayersCostMoreHaloRead) {
  // Equation (7): per-stage halo 2η is re-read every layer, so the total
  // read volume grows with L.
  const CostModel model(simple_params());
  auto sp = simple_point();
  sp.layers = 1;
  const double total_read_1 = model.t_read(sp) * 1.0;
  sp.layers = 15;
  const double total_read_15 = model.t_read(sp) * 15.0;
  EXPECT_GT(total_read_15, total_read_1);
}

TEST(CostModel, ParamsFromMachineMatchesConfiguration) {
  const vcluster::MachineConfig machine;
  const vcluster::SimWorkload workload;
  const CostModelParams p = params_from(machine, workload);
  EXPECT_EQ(p.members, workload.members);
  EXPECT_EQ(p.nx, workload.nx);
  EXPECT_DOUBLE_EQ(p.a, machine.net.alpha);
  EXPECT_DOUBLE_EQ(p.b, machine.net.beta);
  EXPECT_DOUBLE_EQ(p.c, machine.update_cost_per_point_s);
  EXPECT_DOUBLE_EQ(p.theta, 1.0 / machine.pfs.ost.stream_bandwidth);
  EXPECT_EQ(p.xi, workload.halo_xi);
  EXPECT_EQ(p.eta, workload.halo_eta);
}

TEST(CostModel, InvalidParamsThrow) {
  CostModelParams p = simple_params();
  p.c = 0.0;
  EXPECT_THROW(CostModel{p}, senkf::InvalidArgument);
  p = simple_params();
  p.members = 0;
  EXPECT_THROW(CostModel{p}, senkf::InvalidArgument);
}

}  // namespace
}  // namespace senkf::tuning
