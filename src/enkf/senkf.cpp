#include "enkf/senkf.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "enkf/faulty_store.hpp"
#include "enkf/patch_wire.hpp"
#include "parcomm/runtime.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"
#include "telemetry/liveops/liveops.hpp"
#include "telemetry/liveops/watchdog.hpp"
#include "telemetry/phase.hpp"
#include "telemetry/report.hpp"
#include "telemetry/shutdown.hpp"
#include "tuning/cost_model.hpp"
#include "tuning/drift.hpp"

namespace senkf::enkf {

namespace {

constexpr int kBlockTag = 1;

/// Payload discriminators on kBlockTag (first u64 of every message).
/// A kKindBlock message is a framed multi-block batch:
///   {kKindBlock, layer, block…} where block = {member, rect, count,
///   doubles} — the pack_patch_block framing per block, read until the
///   payload is exhausted.  Every field is 8 bytes, so each block body stays
///   8-byte aligned and receivers consume it as a PatchView in place.
constexpr std::uint64_t kKindBlock = 0;
constexpr std::uint64_t kKindDead = 1;

/// One (rank, stage) cell of the run ledger.  Atomic counters because
/// the rank's helper and pool threads feed them; each phase interval is
/// one CountedSpan into one of them.
struct StageCell {
  telemetry::Counter read_ns;    ///< bar-read spans (successful reads only)
  telemetry::Counter obtain_ns;  ///< full acquisition incl. injected delays
  telemetry::Counter send_ns;
  telemetry::Counter wait_ns;
  telemetry::Counter update_ns;
};

/// One rank's per-run counts in the run ledger.
struct RankCounts {
  telemetry::Counter messages;
  telemetry::Counter retries;
  std::uint64_t backlog_peak = 0;  ///< written by the rank's main thread
};

/// Run-scoped observability state shared by every rank thread.  The run
/// ledger (DESIGN.md §11) is a StageCell per (rank, stage) plus a
/// RankCounts per rank.  A rank's threads write only that rank's entries,
/// and senkf() reads the ledger only after Runtime::run has joined every
/// rank thread, so the per-run numbers need no messages and no merge.
/// The ledger is the run's one record of its phases: the registry's
/// `senkf.*` counters receive its totals then (publish_ledger).
struct ObservabilityContext {
  ObservabilityContext(Index n_ranks, Index n_stages)
      : stages(n_stages), cells(n_ranks * n_stages), counts(n_ranks) {}

  StageCell& cell(int rank, Index stage) {
    return cells[static_cast<Index>(rank) * stages + stage];
  }

  Index stages;
  std::vector<StageCell> cells;  ///< rank-major, `stages` cells per rank
  std::vector<RankCounts> counts;
  /// Cost-model-derived stall deadlines for the liveops watchdog
  /// (DESIGN.md §16); all-zero when the watchdog is off, which makes
  /// every WatchdogScope a no-op.
  tuning::PhaseDeadlines deadlines;
};

/// Bucket ladder for the run's per-stage acquisition histogram, one
/// observation per I/O rank per stage (μs, 10 → ~41 s).
const std::vector<double>& stage_obtain_bounds() {
  static const std::vector<double> bounds =
      telemetry::exponential_bounds(10.0, 4.0, 12);
  return bounds;
}

/// A stage WARNs as a read straggler when its slowest bar acquisition is
/// at least kStragglerRatio × the stage mean and at least kStragglerFloorS
/// long — μs-scale in-memory reads jitter past any pure ratio.
constexpr double kStragglerRatio = 2.0;
constexpr double kStragglerFloorS = 1e-3;

template <typename T>
T sum_over_ranks(const std::vector<telemetry::RankSample>& ranks,
                 T telemetry::RankSample::*field) {
  T sum{};
  for (const telemetry::RankSample& r : ranks) sum += r.*field;
  return sum;
}

/// Stage-indexed buffers filled by the helper thread and drained by the
/// main thread (the Fig. 8 handshake), extended with degraded-mode
/// accounting: a member is *accounted* for a stage once its block arrived
/// or the member was declared dead, and a stage completes when every
/// member is accounted — so a dead file shrinks the ensemble instead of
/// deadlocking the pipeline.  Every (stage, member) block and every death
/// has exactly one sender, the member's group reader of this rank's row,
/// so a repeat is a ProtocolError.
class StageBuffers {
 public:
  StageBuffers(Index layers, Index members)
      : layers_(layers),
        members_(members),
        patches_(layers * members),
        accounted_(layers, 0),
        cause_(layers),
        dead_(members, 0) {}

  /// Helper thread: deposits member k's block for `stage`.  The view
  /// aliases an incoming payload; pair every batch of deposits with one
  /// retain() of the payload handle so the bytes outlive the views.
  /// `ctx` is the carrying message's span context: the context of the
  /// deposit that *completes* a stage is remembered as that stage's
  /// cause, so the main thread's stage_wait span can record which
  /// sender it was blocked on (DESIGN.md §13).
  void deposit(Index stage, Index member, grid::PatchView patch,
               const parcomm::SpanContext& ctx) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = patches_[stage * members_ + member];
    if (slot.has_value() || dead_[member] != 0) {
      throw ProtocolError("senkf: repeated block for member " +
                          std::to_string(member) + " in stage " +
                          std::to_string(stage));
    }
    slot = patch;
    if (++accounted_[stage] == members_) {
      cause_[stage] = ctx;
      cv_.notify_all();
    }
  }

  /// Keeps a message payload alive for as long as the buffers (and hence
  /// every deposited view into it) live.
  void retain(parcomm::SharedPayload payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    owners_.push_back(std::move(payload));
  }

  /// Helper thread: member k's file is permanently unreadable — account
  /// it as missing in every stage.
  void mark_dead(Index member, const parcomm::SpanContext& ctx) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_[member] != 0) {
      throw ProtocolError("senkf: member " + std::to_string(member) +
                          " declared dead twice");
    }
    dead_[member] = 1;
    for (Index stage = 0; stage < layers_; ++stage) {
      if (!patches_[stage * members_ + member].has_value()) {
        if (++accounted_[stage] == members_) {
          cause_[stage] = ctx;
          cv_.notify_all();
        }
      }
    }
  }

  /// True once every stage has every member accounted — the helper
  /// thread's termination condition.
  bool complete() const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Index stage = 0; stage < layers_; ++stage) {
      if (accounted_[stage] != members_) return false;
    }
    return true;
  }

  /// Wakes everyone and makes take_stage rethrow `error`: called when the
  /// helper thread dies (a repeated block, or its recv throwing once
  /// Runtime::run cancels a failed run), so the main thread never blocks
  /// on stage data that can no longer arrive and fails with the cause.
  void abort(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = std::move(error);
    cv_.notify_all();
  }

  /// One completed stage: the surviving members' blocks in member order
  /// (views into retained payloads, valid while the StageBuffers live),
  /// plus which members they are (feeds the Yˢ column selection).
  struct Stage {
    std::vector<grid::PatchView> patches;
    std::vector<Index> live;
    /// Span context of the message that completed the stage ("who was I
    /// blocked on"); span_id 0 when tracing was off.
    parcomm::SpanContext cause;
  };

  /// Main thread: blocks until every member is accounted for `stage`,
  /// then hands over the surviving blocks.
  Stage take_stage(Index stage) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return error_ || accounted_[stage] == members_; });
    if (error_) std::rethrow_exception(error_);
    Stage out;
    out.cause = cause_[stage];
    out.patches.reserve(members_);
    out.live.reserve(members_);
    for (Index k = 0; k < members_; ++k) {
      if (dead_[k] != 0) continue;
      const auto& slot = patches_[stage * members_ + k];
      SENKF_REQUIRE(slot.has_value(), "StageBuffers: live member missing");
      out.patches.push_back(*slot);
      out.live.push_back(k);
    }
    return out;
  }

  /// How many stages are fully accounted right now — minus the consumer's
  /// position this is the helper thread's drain backlog, the "how far
  /// ahead is I/O running" signal the observability plane samples.
  Index completed_stages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Index complete = 0;
    for (Index stage = 0; stage < layers_; ++stage) {
      if (accounted_[stage] == members_) ++complete;
    }
    return complete;
  }

 private:
  Index layers_;
  Index members_;
  std::vector<std::optional<grid::PatchView>> patches_;
  std::vector<parcomm::SharedPayload> owners_;
  std::vector<Index> accounted_;
  std::vector<parcomm::SpanContext> cause_;  ///< per stage, see deposit()
  std::vector<std::uint8_t> dead_;
  /// The helper thread's error once it died (see abort()).
  std::exception_ptr error_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
};

struct RankLayout {
  explicit RankLayout(const SenkfConfig& config) : config_(config) {}

  bool is_io(int rank) const {
    return rank >= static_cast<int>(config_.computation_ranks());
  }
  int comp_rank(Index i, Index j) const {
    return static_cast<int>(j * config_.n_sdx + i);
  }
  Index comp_i(int rank) const { return static_cast<Index>(rank) % config_.n_sdx; }
  Index comp_j(int rank) const { return static_cast<Index>(rank) / config_.n_sdx; }
  Index io_group(int rank) const {
    return (static_cast<Index>(rank) - config_.computation_ranks()) /
           config_.n_sdy;
  }
  Index io_slot(int rank) const {
    return (static_cast<Index>(rank) - config_.computation_ranks()) %
           config_.n_sdy;
  }

  const SenkfConfig& config_;
};

/// The injector behind `store`, when reads can actually fail.
const pfs::FaultInjector* injector_of(const EnsembleStore& store) {
  const auto* faulty = dynamic_cast<const FaultyEnsembleStore*>(&store);
  return faulty != nullptr ? &faulty->injector() : nullptr;
}

/// Accumulates one layer's blocks per destination computation rank and
/// sends each destination a single coalesced message (the kKindBlock
/// batch framing).  Blocks are packed straight from the bar's rows —
/// no intermediate `bar.extract(block)` Patch — so each block's body is
/// copied exactly once between the file read and the analysis.
/// Coalescing the member loop this way cuts an io rank's per-layer
/// message count from members_per_group × n_sdx to n_sdx without
/// delaying any stage: take_stage waits for every member anyway.
class BlockBatch {
 public:
  BlockBatch(const RankLayout& layout,
             const grid::Decomposition& decomposition,
             const SenkfConfig& config, Index l, Index slot,
             Index expected_members)
      : layout_(layout), config_(config), l_(l), slot_(slot) {
    blocks_.reserve(config.n_sdx);
    packers_.resize(config.n_sdx);
    for (Index i = 0; i < config.n_sdx; ++i) {
      blocks_.push_back(decomposition.layer_expansion(
          grid::SubdomainId{i, slot}, l, config.layers));
      packers_[i].reserve(2 * sizeof(std::uint64_t) +
                          expected_members * (sizeof(std::uint64_t) +
                                              packed_patch_size(blocks_[i])));
      packers_[i].put<std::uint64_t>(kKindBlock);
      packers_[i].put<std::uint64_t>(l);
    }
  }

  /// Appends member's blocks (cut from its bar) to every destination.
  void add(Index member, const grid::PatchView& bar) {
    for (Index i = 0; i < config_.n_sdx; ++i) {
      packers_[i].put<std::uint64_t>(member);
      pack_patch_block(packers_[i], bar, blocks_[i]);
    }
    ++members_added_;
  }

  /// Sends the accumulated batches (one message per destination) and
  /// resets; the send time lands in `stage_send_ns`.  A batch with no
  /// members sends nothing.
  void flush(parcomm::Communicator& world, telemetry::Counter& stage_send_ns) {
    if (members_added_ == 0) return;
    telemetry::CountedSpan send_span(telemetry::Category::kSend,
                                     "block_scatter", stage_send_ns,
                                     static_cast<std::int32_t>(l_));
    for (Index i = 0; i < config_.n_sdx; ++i) {
      world.send(layout_.comp_rank(i, slot_), kBlockTag, packers_[i].take());
    }
    members_added_ = 0;
  }

 private:
  const RankLayout& layout_;
  const SenkfConfig& config_;
  Index l_;
  Index slot_;
  std::vector<grid::Rect> blocks_;
  std::vector<parcomm::Packer> packers_;
  Index members_added_ = 0;
};

/// Tells every computation rank of latitude row `slot` that `member` is
/// permanently unreadable (accounted as missing in every stage).
void announce_dead(parcomm::Communicator& world, const RankLayout& layout,
                   const SenkfConfig& config, Index member, Index slot) {
  SENKF_LOG_WARN("senkf: dropping member ", member,
                 " (permanently unreadable), continuing on N-k members");
  for (Index i = 0; i < config.n_sdx; ++i) {
    parcomm::Packer packer;
    packer.put<std::uint64_t>(kKindDead);
    packer.put<std::uint64_t>(member);
    world.send(layout.comp_rank(i, slot), kBlockTag, packer.take());
  }
}

void run_io_rank(parcomm::Communicator& world, const RankLayout& layout,
                 const grid::Decomposition& decomposition,
                 const EnsembleStore& store, const SenkfConfig& config,
                 ObservabilityContext& ctx) {
  const Index group = layout.io_group(world.rank());
  const Index slot = layout.io_slot(world.rank());
  const Index n_members = store.members();
  const int my_rank = world.rank();
  RankCounts& counts = ctx.counts[static_cast<Index>(my_rank)];
  const pfs::FaultInjector* injector = injector_of(store);
  const int io_ordinal =
      world.rank() - static_cast<int>(config.computation_ranks());
  const std::chrono::nanoseconds straggle =
      injector != nullptr ? injector->straggler_delay(io_ordinal)
                          : std::chrono::nanoseconds::zero();
  const pfs::Sleeper sleeper = pfs::real_sleeper();

  // The complete degraded read of one bar: injected straggler delay, then
  // the store read under the retry policy (TransientReadError → capped
  // exponential backoff with deterministic jitter → retry; exhaustion →
  // PermanentReadError).  Its time lands in this rank's ledger cell of
  // stage l.
  const auto perform_read = [&](Index member, grid::IndexRange rows,
                                Index l) -> grid::Patch {
    StageCell& cell = ctx.cell(my_rank, l);
    // obtain_ns covers the whole degraded acquisition — injected delay,
    // backoff sleeps, retries — which is what the straggler check must
    // see, and the critical-path walker needs the same interval as a
    // span, or a straggler shows up as untracked time instead of disk
    // time on this rank.  read_ns is the successful read time only.
    telemetry::CountedSpan obtain_span(telemetry::Category::kRead, "bar_obtain",
                                       cell.obtain_ns,
                                       static_cast<std::int32_t>(l));
    // Stall deadline over the whole degraded acquisition: an injected or
    // real straggler holding this read past the model's per-stage read
    // prediction (times the safety scale) fires the watchdog while the
    // read is still stuck.
    const telemetry::liveops::WatchdogScope read_watchdog(
        "bar_obtain", ctx.deadlines.read_s, world.rank());
    if (straggle > std::chrono::nanoseconds::zero()) {
      pfs::FaultMetrics& fault_metrics = pfs::FaultMetrics::get();
      fault_metrics.straggler_ns.add(
          static_cast<std::uint64_t>(straggle.count()));
      fault_metrics.injected.add(1);
      sleeper(straggle);
    }
    return pfs::with_retry(
        config.fault.retry, pfs::op_key(member, rows.begin), sleeper,
        [&] {
          telemetry::CountedSpan read_span(telemetry::Category::kRead,
                                           "bar_read", cell.read_ns,
                                           static_cast<std::int32_t>(l));
          return store.read_bar(member, rows);
        },
        [&](int) { counts.retries.add(1); });
  };

  std::set<Index> dead;
  const Index members_per_group =
      (n_members + config.n_cg - 1) / config.n_cg;
  for (Index l = 0; l < config.layers; ++l) {
    // This rank's stage-l expanded bar spans these rows (identical
    // across i; geometry shared with the timing plane).
    const grid::Rect expansion = decomposition.layer_expansion(
        grid::SubdomainId{0, slot}, l, config.layers);
    // One coalesced batch per (destination, layer): every member's block
    // rides in the same message.
    BlockBatch batch(layout, decomposition, config, l, slot,
                     members_per_group);
    for (Index member = group; member < n_members; member += config.n_cg) {
      if (dead.count(member) != 0) continue;
      grid::Patch bar;
      try {
        bar = perform_read(member, expansion.y, l);
      } catch (const pfs::PermanentReadError&) {
        if (!config.fault.drop_unreadable_members) {
          // Runtime::run cancels the run on this error: every rank blocked
          // on data that will never arrive wakes and unwinds.
          throw pfs::PermanentReadError(
              "senkf: member " + std::to_string(member) +
              " unreadable and drop_unreadable_members is off");
        }
        dead.insert(member);
        announce_dead(world, layout, config, member, slot);
        continue;
      }
      batch.add(member, bar);
    }
    batch.flush(world, ctx.cell(my_rank, l).send_ns);
  }
}

/// Yˢ restricted to the surviving members (column k of the input belongs
/// to member k).
linalg::Matrix select_columns(const linalg::Matrix& matrix,
                              const std::vector<Index>& columns) {
  linalg::Matrix out(matrix.rows(), columns.size());
  for (linalg::Index i = 0; i < matrix.rows(); ++i) {
    for (linalg::Index j = 0; j < columns.size(); ++j) {
      out(i, j) = matrix(i, columns[j]);
    }
  }
  return out;
}

void run_comp_rank(parcomm::Communicator& world, const RankLayout& layout,
                   const grid::Decomposition& decomposition,
                   const EnsembleStore& store,
                   const obs::ObservationSet& observations,
                   const linalg::Matrix& perturbed,
                   const SenkfConfig& config, ObservabilityContext& ctx,
                   std::span<grid::Field> result, std::vector<Index>& live) {
  const grid::SubdomainId my_id{layout.comp_i(world.rank()),
                                layout.comp_j(world.rank())};
  const Index n_members = store.members();
  const int my_rank = world.rank();
  RankCounts& counts = ctx.counts[static_cast<Index>(my_rank)];
  StageBuffers buffers(config.layers, n_members);

  // Helper thread (§4.2): drains block and dead-member messages for this
  // rank into the stage buffers until every (stage, member) pair is
  // accounted — block arrived or member declared dead — and signals the
  // main thread per completed stage.  Its own failures are captured and
  // rethrown after the join; the join itself is guaranteed even when the
  // main thread unwinds (the I/O ranks keep resolving the remaining
  // members regardless, so the helper always drains to completion, or
  // its recv throws once Runtime::run cancels a failed run).
  std::exception_ptr helper_error;
  std::uint64_t helper_messages = 0;
  std::thread helper([&world, &buffers, &helper_error, &helper_messages,
                      my_rank] {
    telemetry::set_thread_rank(my_rank);
    try {
      while (!buffers.complete()) {
        telemetry::TraceSpan span(telemetry::Category::kRecv, "drain_block");
        const parcomm::Envelope envelope =
            world.recv(parcomm::kAnySource, kBlockTag);
        // Flow step: the message passed through this drain on its way to
        // the stage_wait it will release.
        span.set_flow(telemetry::FlowDir::kStep, envelope.ctx.span_id);
        ++helper_messages;
        parcomm::Unpacker unpacker(envelope.payload);
        const auto kind = unpacker.get<std::uint64_t>();
        if (kind == kKindDead) {
          buffers.mark_dead(unpacker.get<std::uint64_t>(), envelope.ctx);
          continue;
        }
        SENKF_REQUIRE(kind == kKindBlock, "senkf: unknown block-message kind");
        const auto stage = unpacker.get<std::uint64_t>();
        span.set_stage(static_cast<std::int32_t>(stage));
        // Zero-copy deposit: every block in the batch becomes a view
        // into the payload, which the buffers retain until the run ends.
        buffers.retain(envelope.payload);
        while (!unpacker.exhausted()) {
          const auto member = unpacker.get<std::uint64_t>();
          buffers.deposit(stage, member, unpack_patch_view(unpacker),
                          envelope.ctx);
        }
      }
    } catch (...) {
      helper_error = std::current_exception();
      buffers.abort(helper_error);  // never leave the main thread blocked
    }
  });
  struct JoinGuard {
    std::thread& thread;
    ~JoinGuard() {
      if (thread.joinable()) thread.join();
    }
  } join_guard{helper};

  std::vector<StageBuffers::Stage> stage_data(config.layers);
  // Analysis pool (§4.2 extended): each completed stage is submitted as
  // an independent task, so while the helper thread drains stage l+1 and
  // the main thread blocks on take_stage, up to `analysis_threads` layer
  // analyses run concurrently.  Every task reads only its own slot of
  // `stage_data` and writes only its layer target of the live members'
  // output fields — bit-identical output for any pool width.
  // Declared after that data: on a throw, ~ThreadPool drains its queue first.
  ThreadPool pool(
      ThreadPool::resolve_thread_count(config.analysis_threads));

  // Phase accounting is measured where each phase happens: comp_wait is
  // the main thread blocked in take_stage, comp_update the summed
  // execution time of the analysis tasks (recorded inside each task, on
  // whichever pool thread ran it).
  for (Index l = 0; l < config.layers; ++l) {
    StageCell& cell = ctx.cell(my_rank, l);
    // Helper-thread drain backlog: stages already complete but not yet
    // consumed by the analysis loop.  Its peak is the depth of the
    // read-ahead the overlap achieved (0 = the main thread always waits).
    const Index completed = buffers.completed_stages();
    if (completed > l) {
      counts.backlog_peak =
          std::max<std::uint64_t>(counts.backlog_peak, completed - l);
    }
    {
      telemetry::CountedSpan wait_span(telemetry::Category::kWait,
                                       "stage_wait", cell.wait_ns,
                                       static_cast<std::int32_t>(l));
      // A stage overrunning its end-to-end prediction means an upstream
      // rank stalled; the watchdog names this wait (and its stage) while
      // the pipeline is still blocked.
      const telemetry::liveops::WatchdogScope wait_watchdog(
          "stage_wait", ctx.deadlines.stage_s, my_rank);
      stage_data[l] = buffers.take_stage(l);
      // Flow finish: this wait was released by the message that completed
      // the stage; the flow id names its sender-side span.
      wait_span.set_flow(telemetry::FlowDir::kIn,
                         stage_data[l].cause.span_id);
    }

    pool.submit([&, l, my_rank] {
      telemetry::set_thread_rank(my_rank);
      telemetry::CountedSpan update_span(telemetry::Category::kUpdate,
                                         "local_analysis",
                                         ctx.cell(my_rank, l).update_ns,
                                         static_cast<std::int32_t>(l));
      const grid::Rect target = decomposition.layer(my_id, l, config.layers);
      const StageBuffers::Stage& stage = stage_data[l];
      SENKF_REQUIRE(stage.patches.size() >= 2,
                    "local_analysis: need at least 2 ensemble members");
      const grid::Rect expansion = stage.patches.front().rect();
      LocalAnalysisWorkspace& ws = LocalAnalysisWorkspace::for_this_thread();
      // N−k degradation: the analysis runs on the surviving members with
      // the matching Yˢ columns; every ensemble moment is computed over
      // the live count, so the weights renormalize by construction.
      std::optional<linalg::Matrix> live_ys;
      if (stage.live.size() != n_members) {
        live_ys = select_columns(perturbed, stage.live);
      }
      const AnalysisView local = local_analysis_scratch(
          stage.patches, expansion, target, observations,
          live_ys ? *live_ys : perturbed, config.analysis, ws);
      for (Index idx = 0; idx < stage.live.size(); ++idx) {
        result[stage.live[idx]].insert(local.members[idx]);
      }
    });
  }
  pool.wait_idle();

  // A member must be live in every stage or none: its file is dead from
  // the start or not at all (retry budgets outlast transient bursts).  A
  // mid-run death would mean stages analysed different ensembles.
  for (Index l = 1; l < config.layers; ++l) {
    SENKF_REQUIRE(stage_data[l].live == stage_data[0].live,
                  "senkf: member died mid-run; stages saw different ensembles");
  }
  live = std::move(stage_data[0].live);
  helper.join();
  if (helper_error) std::rethrow_exception(helper_error);

  counts.messages.add(helper_messages);
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The run's per-rank samples, read off the ledger once every rank
/// thread has joined: one RankSample per rank, in rank order.
std::vector<telemetry::RankSample> read_ledger(ObservabilityContext& ctx,
                                               const RankLayout& layout) {
  std::vector<telemetry::RankSample> ranks(ctx.counts.size());
  for (Index r = 0; r < ranks.size(); ++r) {
    const int rank = static_cast<int>(r);
    telemetry::RankSample& sample = ranks[r];
    sample.rank = rank;
    sample.is_io = layout.is_io(rank) ? 1 : 0;
    if (sample.is_io != 0) {
      sample.group = static_cast<std::int32_t>(layout.io_group(rank));
    }
    for (Index l = 0; l < ctx.stages; ++l) {
      const StageCell& cell = ctx.cell(rank, l);
      sample.read_s += seconds(cell.read_ns.value());
      sample.obtain_s += seconds(cell.obtain_ns.value());
      sample.send_s += seconds(cell.send_ns.value());
      sample.wait_s += seconds(cell.wait_ns.value());
      sample.update_s += seconds(cell.update_ns.value());
    }
    const RankCounts& counts = ctx.counts[r];
    sample.messages = counts.messages.value();
    sample.retries = counts.retries.value();
    sample.backlog_peak = counts.backlog_peak;
  }
  return ranks;
}

/// Slowest against mean of one time per rank or per group.
struct Skew {
  double max_s = 0.0;
  double mean_s = 0.0;
  double ratio = 0.0;  ///< max / mean; 0 when nothing took time
  std::size_t slowest = 0;  ///< index of the (first) slowest entry
};

Skew skew_of(const std::vector<double>& seconds) {
  Skew out;
  if (seconds.empty()) return out;
  const auto slowest = std::max_element(seconds.begin(), seconds.end());
  out.slowest = static_cast<std::size_t>(slowest - seconds.begin());
  out.max_s = *slowest;
  out.mean_s = std::accumulate(seconds.begin(), seconds.end(), 0.0) /
               static_cast<double>(seconds.size());
  out.ratio = out.mean_s > 0.0 ? out.max_s / out.mean_s : 0.0;
  return out;
}

/// Adds the ledger's totals to the process-cumulative `senkf.*` registry
/// counters: once per call, after every rank thread has joined, on the
/// success and the fault path alike, so the registry, /metrics and the
/// report agree with the run's own record at every call boundary.
void publish_ledger(const ObservabilityContext& ctx, std::size_t dropped) {
  auto& registry = telemetry::Registry::global();
  const auto publish = [&registry](const char* name, const auto& rows,
                                   auto field) {
    std::uint64_t total = 0;
    for (const auto& row : rows) total += (row.*field).value();
    registry.counter(name).add(total);
  };
  publish("senkf.io_read_ns", ctx.cells, &StageCell::read_ns);
  publish("senkf.io_send_ns", ctx.cells, &StageCell::send_ns);
  publish("senkf.comp_wait_ns", ctx.cells, &StageCell::wait_ns);
  publish("senkf.comp_update_ns", ctx.cells, &StageCell::update_ns);
  publish("senkf.messages", ctx.counts, &RankCounts::messages);
  publish("senkf.read.retries", ctx.counts, &RankCounts::retries);
  registry.counter("senkf.member.dropped").add(dropped);
}

}  // namespace

std::vector<grid::Field> senkf(const EnsembleStore& store,
                               const obs::ObservationSet& observations,
                               const linalg::Matrix& perturbed,
                               const SenkfConfig& config, SenkfStats* stats) {
  const grid::Decomposition decomposition(store.grid(), config.n_sdx,
                                          config.n_sdy,
                                          config.analysis.halo);
  SENKF_REQUIRE(decomposition.valid_layer_count(config.layers),
                "senkf: L must divide the sub-domain row count");
  SENKF_REQUIRE(config.n_cg >= 1 && store.members() % config.n_cg == 0,
                "senkf: N must be a multiple of n_cg");
  // Validate analysis and fault options before any rank launches, so
  // configuration errors surface here rather than inside a running
  // pipeline.
  SENKF_REQUIRE(config.analysis.inflation >= 1.0,
                "senkf: inflation must be >= 1");
  SENKF_REQUIRE(config.analysis.ridge >= 0.0, "senkf: ridge must be >= 0");
  SENKF_REQUIRE(config.fault.retry.max_attempts >= 1,
                "senkf: retry.max_attempts must be >= 1");
  SENKF_REQUIRE(config.fault.retry.backoff_factor >= 1.0,
                "senkf: retry.backoff_factor must be >= 1");
  SENKF_REQUIRE(config.fault.retry.jitter >= 0.0 &&
                    config.fault.retry.jitter < 1.0,
                "senkf: retry.jitter must be in [0, 1)");

  const RankLayout layout(config);
  // The members each computation rank analysed, written by that rank.
  std::vector<std::vector<Index>> live(config.computation_ranks());

  // Arm the live operations plane (SENKF_HTTP endpoint, SENKF_WATCHDOG)
  // — no-ops when unset — and remember the cycle's start so the
  // critical-path window excludes spans from earlier cycles.
  telemetry::liveops::ensure_liveops_started();
  const std::int64_t run_start_ns = telemetry::now_ns();

  // Observability plane state shared by every rank thread of this run.
  ObservabilityContext ctx(config.total_ranks(), config.layers);

  // The §4.3 cost model of this run, shared by the watchdog deadlines and
  // the drift record below (the auto-tuner evaluates the same model).
  tuning::CostModelParams model_params;
  model_params.members = static_cast<std::uint64_t>(store.members());
  model_params.nx = static_cast<std::uint64_t>(store.grid().nx());
  model_params.ny = static_cast<std::uint64_t>(store.grid().ny());
  const tuning::CostModel model(model_params);
  vcluster::SenkfParams params;
  params.n_sdx = static_cast<std::uint64_t>(config.n_sdx);
  params.n_sdy = static_cast<std::uint64_t>(config.n_sdy);
  params.layers = static_cast<std::uint64_t>(config.layers);
  params.n_cg = static_cast<std::uint64_t>(config.n_cg);

  // Arm the watchdog's per-phase deadlines (predictions are per I/O rank
  // per stage — exactly the granularity the scopes below arm at).  Only
  // derived when the watchdog thread is actually running; otherwise the
  // deadlines stay zero and every WatchdogScope is a no-op.
  if (telemetry::liveops::watchdog_running() && model.feasible(params)) {
    ctx.deadlines = tuning::phase_deadlines(model, params);
  }

  // One zero field per member.  Every computation rank writes its layer
  // targets into them; the targets tile the grid, so the writes are
  // disjoint, and the Runtime::run join orders them before the reads
  // below.
  std::vector<grid::Field> result(store.members(), grid::Field(store.grid()));

  try {
    // A rank's failure (a PermanentReadError when drop_unreadable_members
    // is off) cancels the run: Runtime::run wakes every blocked rank and
    // rethrows that first error, the root cause.
    parcomm::Runtime::run(
        static_cast<int>(config.total_ranks()),
        [&](parcomm::Communicator& world) {
          if (layout.is_io(world.rank())) {
            run_io_rank(world, layout, decomposition, store, config, ctx);
          } else {
            run_comp_rank(world, layout, decomposition, store, observations,
                          perturbed, config, ctx, result, live[world.rank()]);
          }
        });
    // A member dropped by the readers of some sub-domain rows only would
    // keep its field at zero in those rows' bands (DESIGN.md §9).
    for (std::size_t rank = 1; rank < live.size(); ++rank) {
      if (live[rank] != live[0]) {
        throw ProtocolError("senkf: computation rank " + std::to_string(rank) +
                            " analysed a different ensemble than rank 0");
      }
    }
  } catch (...) {
    // The aborted prefix's reads, sends and retries reach the registry
    // first, so the partial report's metrics and faults sections carry
    // them.  Then ordered teardown before the flush: quiesce the
    // background threads (watchdog, endpoint) so neither of them writes
    // the export files concurrently with us, then
    // flush-on-fault — a failed run still writes its (partial) trace and
    // report, often the only evidence of what went wrong.  The next
    // run's ensure_* calls re-arm whatever the environment enables.
    publish_ledger(ctx, 0);
    telemetry::shutdown();
    telemetry::flush_exports(/*partial=*/true);
    throw;
  }

  // Members that no rank analysed were dropped: their fields leave the
  // result (erased back to front, so the earlier indices stay valid).
  std::vector<Index> dropped;
  for (Index k = 0; k < store.members(); ++k) {
    if (!std::binary_search(live[0].begin(), live[0].end(), k)) {
      dropped.push_back(k);
    }
  }
  for (auto k = dropped.rbegin(); k != dropped.rend(); ++k) {
    result.erase(result.begin() + static_cast<std::ptrdiff_t>(*k));
  }
  publish_ledger(ctx, dropped.size());

  // Everything below derives from the run ledger, never from
  // process-cumulative counters.  Every total is a sum over the per-rank
  // samples, so the report's "phases = Σ ranks" invariant holds by
  // construction.
  using telemetry::RankSample;
  std::vector<RankSample> ranks = read_ledger(ctx, layout);
  const double io_read_s = sum_over_ranks(ranks, &RankSample::read_s);
  const double io_send_s = sum_over_ranks(ranks, &RankSample::send_s);
  const double comp_wait_s = sum_over_ranks(ranks, &RankSample::wait_s);
  const double comp_update_s = sum_over_ranks(ranks, &RankSample::update_s);

  std::vector<double> run_obtain_s;
  std::uint64_t backlog_peak = 0;
  for (const RankSample& r : ranks) {
    if (r.is_io != 0) {
      run_obtain_s.push_back(r.obtain_s);
    } else {
      backlog_peak = std::max(backlog_peak, r.backlog_peak);
    }
  }
  const Skew run_skew = skew_of(run_obtain_s);
  auto& registry = telemetry::Registry::global();
  registry.gauge("senkf.skew.read").set(run_skew.ratio);
  registry.gauge("senkf.backlog.peak").set(static_cast<double>(backlog_peak));

  // Straggler check (DESIGN.md §11): one pass per stage over the I/O
  // ranks' ledger cells of that stage gives the stage's read skew across
  // I/O ranks and across concurrent groups, and the run's acquisition
  // histogram.
  telemetry::Histogram stage_obtain(stage_obtain_bounds());
  double worst_stage_ratio = 0.0;
  double worst_group_ratio = 0.0;
  std::uint64_t straggler_warns = 0;
  const Index first_io = config.computation_ranks();  // I/O ranks follow
  std::vector<double> stage_obtain_s(config.io_ranks());
  std::vector<double> group_obtain_s(config.n_cg);
  for (Index l = 0; l < config.layers; ++l) {
    std::fill(group_obtain_s.begin(), group_obtain_s.end(), 0.0);
    for (Index io = 0; io < stage_obtain_s.size(); ++io) {
      const int rank = static_cast<int>(first_io + io);
      const double obtain_s = seconds(ctx.cell(rank, l).obtain_ns.value());
      stage_obtain_s[io] = obtain_s;
      group_obtain_s[layout.io_group(rank)] += obtain_s;
      stage_obtain.observe(obtain_s * 1e6);
    }
    const Skew skew = skew_of(stage_obtain_s);
    worst_stage_ratio = std::max(worst_stage_ratio, skew.ratio);
    worst_group_ratio =
        std::max(worst_group_ratio, skew_of(group_obtain_s).ratio);
    if (skew.ratio < kStragglerRatio || skew.max_s < kStragglerFloorS) continue;
    ++straggler_warns;
    const Index straggler = first_io + skew.slowest;
    registry.gauge("senkf.straggler.last_rank")
        .set(static_cast<double>(straggler));
    SENKF_LOG_WARN("senkf: stage ", l, " read straggler: rank ", straggler,
                   " took ", skew.max_s, " s vs stage mean ", skew.mean_s,
                   " s (x", skew.ratio, ", threshold x", kStragglerRatio, ")");
  }
  registry.counter("senkf.straggler.warns").add(straggler_warns);
  registry.gauge("senkf.skew.stage_read").set(worst_stage_ratio);
  registry.gauge("senkf.skew.group_read").set(worst_group_ratio);

  // Measured vs model (eqs. (7)–(9)) in the model's native
  // normalization: read/comm per I/O rank per stage, comp per
  // computation rank per stage (the fig09 convention).
  const double io_norm =
      static_cast<double>(config.io_ranks() * config.layers);
  const double comp_norm =
      static_cast<double>(config.computation_ranks() * config.layers);
  const tuning::PhaseDrift drift = tuning::record_model_drift(
      model, params, io_read_s / io_norm, io_send_s / io_norm,
      comp_update_s / comp_norm);

  // Cycle boundary: attribute this cycle's critical path from the spans
  // it recorded.
  if (telemetry::tracing_enabled()) {
    telemetry::CriticalPathOptions options;
    options.window_start_ns = run_start_ns;
    const telemetry::CriticalPathReport cp = telemetry::analyze_critical_path(
        telemetry::collect_events(), options);
    if (cp.valid) telemetry::append_critical_path(telemetry::summarize(cp));
  }

  if (stats != nullptr) {
    stats->io_read_seconds = io_read_s;
    stats->io_send_seconds = io_send_s;
    stats->comp_wait_seconds = comp_wait_s;
    stats->comp_update_seconds = comp_update_s;
    stats->messages = sum_over_ranks(ranks, &RankSample::messages);
    stats->read_retries = sum_over_ranks(ranks, &RankSample::retries);
    stats->dropped_members = dropped;
    stats->straggler_warns = straggler_warns;
    stats->read_skew = run_skew.ratio;
    stats->ranks = ranks;
  }

  // Machine-readable run report (SENKF_REPORT=<path> arms the export).
  telemetry::RunReport report;
  report.kind = "senkf";
  const auto config_entry = [&report](const char* key, auto value) {
    report.config.emplace_back(key, std::to_string(value));
  };
  config_entry("n_sdx", config.n_sdx);
  config_entry("n_sdy", config.n_sdy);
  config_entry("layers", config.layers);
  config_entry("n_cg", config.n_cg);
  config_entry("analysis_threads", config.analysis_threads);
  config_entry("members", store.members());
  report.phases = {{"io_read_s", io_read_s},
                   {"io_send_s", io_send_s},
                   {"comp_wait_s", comp_wait_s},
                   {"comp_update_s", comp_update_s}};
  report.drift = {{"read", drift.read},
                  {"comm", drift.comm},
                  {"comp", drift.comp}};
  report.skew = {{"read.ratio", run_skew.ratio},
                 {"read.max_s", run_skew.max_s},
                 {"read.mean_s", run_skew.mean_s},
                 {"stage.worst_ratio", worst_stage_ratio},
                 {"group.worst_ratio", worst_group_ratio}};
  report.straggler_warns = straggler_warns;
  report.dropped_members.assign(dropped.begin(), dropped.end());
  report.ranks = std::move(ranks);
  report.aggregate.push_back(
      telemetry::histogram_row("senkf.rank.stage_obtain_us", stage_obtain));
  telemetry::set_run_report(std::move(report));

  return result;
}

}  // namespace senkf::enkf
