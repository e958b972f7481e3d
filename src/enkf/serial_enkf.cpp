#include "enkf/serial_enkf.hpp"

namespace senkf::enkf {

std::vector<grid::Field> serial_enkf(const EnsembleStore& store,
                                     const obs::ObservationSet& observations,
                                     const linalg::Matrix& perturbed,
                                     const EnkfRunConfig& config) {
  const grid::Decomposition decomposition(store.grid(), config.n_sdx,
                                          config.n_sdy,
                                          config.analysis.halo);
  SENKF_REQUIRE(decomposition.valid_layer_count(config.layers),
                "serial_enkf: L must divide the sub-domain row count");

  // One load per member.  The background stays read-only: every patch's
  // expansion is gathered in place from these full-field views, so a
  // later patch never sees an earlier patch's analysis.  The analysis
  // starts as a copy, so skipped (observation-free) regions keep their
  // prior values.
  std::vector<grid::Field> background;
  background.reserve(store.members());
  for (Index k = 0; k < store.members(); ++k) {
    background.push_back(store.load_member(k));
  }
  std::vector<grid::PatchView> views;
  views.reserve(background.size());
  for (const grid::Field& member : background) {
    views.emplace_back(store.grid().bounds(), member.data());
  }
  std::vector<grid::Field> analysis = background;

  LocalAnalysisWorkspace& ws = LocalAnalysisWorkspace::for_this_thread();
  for (const grid::SubdomainId id : decomposition.all_subdomains()) {
    for (Index l = 0; l < config.layers; ++l) {
      const grid::Rect target = decomposition.layer(id, l, config.layers);
      const grid::Rect expansion =
          decomposition.layer_expansion(id, l, config.layers);
      const AnalysisView local =
          local_analysis_scratch(views, expansion, target, observations,
                                 perturbed, config.analysis, ws);
      for (Index k = 0; k < store.members(); ++k) {
        analysis[k].insert(local.members[k]);
      }
    }
  }
  return analysis;
}

}  // namespace senkf::enkf
