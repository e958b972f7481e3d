#include "tuning/drift.hpp"

#include "telemetry/metrics.hpp"

namespace senkf::tuning {

namespace {

double rel_drift(double measured, double predicted) {
  if (predicted <= 0.0) return 0.0;
  return (measured - predicted) / predicted;
}

}  // namespace

PhaseDrift record_model_drift(const CostModel& model,
                              const vcluster::SenkfParams& p,
                              double measured_read_s, double measured_comm_s,
                              double measured_comp_s) {
  PhaseDrift drift;
  drift.read = rel_drift(measured_read_s, model.t_read(p));
  drift.comm = rel_drift(measured_comm_s, model.t_comm(p));
  drift.comp = rel_drift(measured_comp_s, model.t_comp(p));
  auto& registry = telemetry::Registry::global();
  registry.gauge("model.drift.read").set(drift.read);
  registry.gauge("model.drift.comm").set(drift.comm);
  registry.gauge("model.drift.comp").set(drift.comp);
  return drift;
}

}  // namespace senkf::tuning
