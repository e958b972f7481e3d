#include "enkf/penkf.hpp"

#include <mutex>

#include "enkf/patch_wire.hpp"
#include "parcomm/runtime.hpp"
#include "support/thread_pool.hpp"
#include "telemetry/liveops/liveops.hpp"
#include "telemetry/phase.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace senkf::enkf {

namespace {
constexpr int kResultTag = 2;

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

  std::vector<grid::Field> result;
  std::mutex result_mutex;

  // Same continuous-telemetry arming as senkf(): no-ops unless
  // SENKF_SAMPLE_MS / SENKF_HTTP / SENKF_PROFILE / SENKF_WATCHDOG set.
  telemetry::ensure_sampler_started();
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
    // so they fan out across the rank's analysis pool; each task packs
    // its layer straight off the projection and the payloads are
    // concatenated in layer order afterwards, keeping the output
    // bit-identical to the sequential loop for any pool width.  The
    // kernel gathers each layer's expansion window in place from the
    // subdomain bars — no per-layer extract() copies.
    std::vector<grid::PatchView> member_views(my_members.begin(),
                                              my_members.end());
    std::vector<Index> member_ids(n_members);
    for (Index k = 0; k < n_members; ++k) member_ids[k] = k;
    std::vector<parcomm::Packer> layer_packs(config.layers);
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
      parcomm::Packer& pack = layer_packs[l];
      pack.reserve(n_members *
                   (sizeof(std::uint64_t) + packed_patch_size(target)));
      local_analysis_packed(member_views, expansion, target, observations,
                            perturbed, config.analysis, member_ids,
                            LocalAnalysisWorkspace::for_this_thread(), pack);
    });
    parcomm::Packer results;
    {
      std::size_t bytes = sizeof(std::uint64_t);
      for (Index l = 0; l < config.layers; ++l) bytes += layer_packs[l].size();
      results.reserve(bytes);
    }
    results.put<std::uint64_t>(config.layers * n_members);
    for (Index l = 0; l < config.layers; ++l) {
      const parcomm::Payload payload = layer_packs[l].take();
      results.put_raw(payload.data(), payload.size());
    }

    // --- gather at rank 0 -------------------------------------------------
    if (world.rank() != 0) {
      world.send(0, kResultTag, results.take());
      return;
    }
    std::vector<grid::Field> fields;
    fields.reserve(n_members);
    for (Index k = 0; k < n_members; ++k) fields.push_back(store.load_member(k));
    // Member ids are 0..N−1, so they double as the field slots.
    insert_results(results.take_shared(), member_ids, fields);
    for (int r = 1; r < world.size(); ++r) {
      parcomm::Envelope envelope;
      {
        telemetry::TraceSpan wait_span(telemetry::Category::kWait,
                                       "result_wait");
        envelope = world.recv(r, kResultTag);
        wait_span.set_flow(telemetry::FlowDir::kIn, envelope.ctx.span_id);
      }
      insert_results(envelope.payload, member_ids, fields);
    }
    std::lock_guard<std::mutex> lock(result_mutex);
    result = std::move(fields);
  });

  SENKF_REQUIRE(!result.empty(), "penkf: no result produced");
  return result;
}

}  // namespace senkf::enkf
