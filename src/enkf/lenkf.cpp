#include "enkf/lenkf.hpp"

#include "enkf/patch_wire.hpp"
#include "parcomm/runtime.hpp"
#include "telemetry/liveops/liveops.hpp"
#include "telemetry/phase.hpp"
#include "telemetry/trace.hpp"

namespace senkf::enkf {

namespace {
constexpr int kDataTag = 1;

/// Phase totals in the registry, so an LEnKF run shows up in the metrics
/// dump of the SENKF_REPORT export alongside the senkf.* counters.
struct LenkfCounters {
  telemetry::Counter& read_ns;
  telemetry::Counter& send_ns;
  telemetry::Counter& update_ns;

  static LenkfCounters& get() {
    auto& registry = telemetry::Registry::global();
    static LenkfCounters counters{
        registry.counter("lenkf.read_ns"),
        registry.counter("lenkf.send_ns"),
        registry.counter("lenkf.update_ns"),
    };
    return counters;
  }
};

}  // namespace

std::vector<grid::Field> lenkf(const EnsembleStore& store,
                               const obs::ObservationSet& observations,
                               const linalg::Matrix& perturbed,
                               const EnkfRunConfig& config) {
  const grid::Decomposition decomposition(store.grid(), config.n_sdx,
                                          config.n_sdy,
                                          config.analysis.halo);
  SENKF_REQUIRE(decomposition.valid_layer_count(config.layers),
                "lenkf: L must divide the sub-domain row count");
  const int n_procs =
      static_cast<int>(decomposition.subdomain_count());
  const Index n_members = store.members();

  // One zero field per member; every rank writes its layer targets into
  // them.  The targets tile the grid, so the writes are disjoint, and the
  // Runtime::run join orders them before the return.
  std::vector<grid::Field> result(n_members, grid::Field(store.grid()));

  // Live-operations arming, as in every engine: no-op unless
  // SENKF_HTTP / SENKF_WATCHDOG set.
  telemetry::liveops::ensure_liveops_started();

  parcomm::Runtime::run(n_procs, [&](parcomm::Communicator& world) {
    const grid::SubdomainId my_id =
        decomposition.subdomain_of_rank(static_cast<Index>(world.rank()));

    // --- obtain local data: single reader, serial scatter ----------------
    // Members are held as views: rank 0 views its own extracted pieces
    // (owned below), receivers view the message payloads in place and
    // keep the handles alive for the analysis loop.
    std::vector<grid::PatchView> my_members;
    my_members.reserve(n_members);
    std::vector<grid::Patch> owned;
    std::vector<parcomm::SharedPayload> keepalive;
    if (world.rank() == 0) {
      owned.reserve(n_members);
      telemetry::CountedSpan scatter_span(telemetry::Category::kSend,
                                          "single_reader_scatter",
                                          LenkfCounters::get().send_ns);
      for (Index k = 0; k < n_members; ++k) {
        // One contiguous read of the whole member file.
        grid::Patch file;
        {
          telemetry::CountedSpan read_span(telemetry::Category::kRead,
                                           "file_read",
                                           LenkfCounters::get().read_ns);
          file = store.read_bar(k, grid::IndexRange{0, store.grid().ny()});
        }
        for (int r = 0; r < world.size(); ++r) {
          const grid::Rect expansion = decomposition.expansion(
              decomposition.subdomain_of_rank(static_cast<Index>(r)));
          if (r == 0) {
            owned.push_back(file.extract(expansion));
            my_members.push_back(owned.back());
          } else {
            // Pack the piece straight from the file's rows — no
            // intermediate extract Patch, one body copy.
            parcomm::Packer packer;
            packer.reserve(packed_patch_size(expansion));
            pack_patch_block(packer, file, expansion);
            world.send(r, kDataTag, packer.take());
          }
        }
      }
    } else {
      keepalive.reserve(n_members);
      for (Index k = 0; k < n_members; ++k) {
        const parcomm::Envelope envelope = world.recv(0, kDataTag);
        parcomm::Unpacker unpacker(envelope.payload);
        my_members.push_back(unpack_patch_view(unpacker));
        keepalive.push_back(envelope.payload);
      }
    }

    // --- local update: layer by layer, same kernel everywhere ------------
    // The kernel gathers each layer's expansion window in place from the
    // subdomain views (no per-layer extract() copies); the rank inserts
    // the analysis straight into the output fields.
    LocalAnalysisWorkspace& ws = LocalAnalysisWorkspace::for_this_thread();
    for (Index l = 0; l < config.layers; ++l) {
      telemetry::CountedSpan update_span(telemetry::Category::kUpdate,
                                         "local_analysis",
                                         LenkfCounters::get().update_ns,
                                         static_cast<std::int32_t>(l));
      const grid::Rect target = decomposition.layer(my_id, l, config.layers);
      const grid::Rect expansion =
          decomposition.layer_expansion(my_id, l, config.layers);
      const AnalysisView local =
          local_analysis_scratch(my_members, expansion, target, observations,
                                 perturbed, config.analysis, ws);
      for (Index k = 0; k < n_members; ++k) result[k].insert(local.members[k]);
    }
  });

  return result;
}

}  // namespace senkf::enkf
