#include "enkf/penkf.hpp"

#include "parcomm/runtime.hpp"
#include "support/thread_pool.hpp"
#include "telemetry/liveops/liveops.hpp"
#include "telemetry/phase.hpp"
#include "telemetry/trace.hpp"

namespace senkf::enkf {

namespace {

/// Phase totals in the registry, so a PEnKF run shows up in the metrics
/// dump of the SENKF_REPORT export alongside the senkf.* counters.
struct PenkfCounters {
  telemetry::Counter& read_ns;
  telemetry::Counter& update_ns;

  static PenkfCounters& get() {
    auto& registry = telemetry::Registry::global();
    static PenkfCounters counters{
        registry.counter("penkf.read_ns"),
        registry.counter("penkf.update_ns"),
    };
    return counters;
  }
};

}  // namespace

std::vector<grid::Field> penkf(const EnsembleStore& store,
                               const obs::ObservationSet& observations,
                               const linalg::Matrix& perturbed,
                               const EnkfRunConfig& config) {
  const grid::Decomposition decomposition(store.grid(), config.n_sdx,
                                          config.n_sdy,
                                          config.analysis.halo);
  SENKF_REQUIRE(decomposition.valid_layer_count(config.layers),
                "penkf: L must divide the sub-domain row count");
  const int n_procs = static_cast<int>(decomposition.subdomain_count());
  const Index n_members = store.members();

  // One zero field per member; every pool task of every rank writes its
  // layer target into them.  The targets tile the grid, so the writes are
  // disjoint, and the Runtime::run join orders them before the return.
  std::vector<grid::Field> result(n_members, grid::Field(store.grid()));

  // Live-operations arming, as in every engine: no-op unless
  // SENKF_HTTP / SENKF_WATCHDOG set.
  telemetry::liveops::ensure_liveops_started();

  parcomm::Runtime::run(n_procs, [&](parcomm::Communicator& world) {
    const grid::SubdomainId my_id =
        decomposition.subdomain_of_rank(static_cast<Index>(world.rank()));
    const grid::Rect my_expansion = decomposition.expansion(my_id);

    // --- phase 1: obtain local data by parallel block reading ------------
    std::vector<grid::Patch> my_members;
    my_members.reserve(n_members);
    {
      telemetry::CountedSpan read_span(telemetry::Category::kRead,
                                       "block_read_phase",
                                       PenkfCounters::get().read_ns);
      for (Index k = 0; k < n_members; ++k) {
        my_members.push_back(store.read_block(k, my_expansion));
      }
    }

    // --- phase 2: local update (no inter-processor communication) --------
    // The layer analyses are independent (they only read `my_members`),
    // so they fan out across the rank's analysis pool; each task inserts
    // its layer straight into the output fields, so any pool width writes
    // the same values.  The kernel gathers each layer's expansion window
    // in place from the subdomain bars — no per-layer extract() copies.
    std::vector<grid::PatchView> member_views(my_members.begin(),
                                              my_members.end());
    ThreadPool pool(
        ThreadPool::resolve_thread_count(config.analysis_threads));
    const int my_rank = world.rank();
    pool.parallel_for(config.layers, [&, my_rank](std::size_t l) {
      telemetry::set_thread_rank(my_rank);
      telemetry::CountedSpan update_span(telemetry::Category::kUpdate,
                                         "local_analysis",
                                         PenkfCounters::get().update_ns,
                                         static_cast<std::int32_t>(l));
      const grid::Rect target = decomposition.layer(my_id, l, config.layers);
      const grid::Rect expansion =
          decomposition.layer_expansion(my_id, l, config.layers);
      LocalAnalysisWorkspace& ws = LocalAnalysisWorkspace::for_this_thread();
      const AnalysisView local =
          local_analysis_scratch(member_views, expansion, target, observations,
                                 perturbed, config.analysis, ws);
      for (Index k = 0; k < n_members; ++k) result[k].insert(local.members[k]);
    });
  });

  return result;
}

}  // namespace senkf::enkf
