#include "enkf/senkf.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <set>
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
#include "telemetry/timeseries.hpp"
#include "tuning/cost_model.hpp"
#include "tuning/drift.hpp"

namespace senkf::enkf {

namespace {

constexpr int kBlockTag = 1;
constexpr int kResultTag = 2;
/// I/O-group control channel (straggler re-issue protocol); never touches
/// computation ranks, so wildcards on it cannot steal result messages.
constexpr int kIoCtrlTag = 3;

/// Payload discriminators on kBlockTag (first u64 of every message).
/// A kKindBlock message is a framed multi-block batch:
///   {kKindBlock, layer, block…} where block = {member, rect, count,
///   doubles} — the pack_patch framing per block, read until the payload
///   is exhausted.  Every field is 8 bytes, so each block body stays
///   8-byte aligned and receivers consume it as a PatchView in place.
constexpr std::uint64_t kKindBlock = 0;
constexpr std::uint64_t kKindDead = 1;
/// The sending rank is unwinding; receivers must stop waiting for stage
/// data and unwind too (only sent when drop_unreadable_members is off).
constexpr std::uint64_t kKindAbort = 2;

/// Payload discriminators on kIoCtrlTag.
constexpr std::uint64_t kCtrlReissue = 0;
constexpr std::uint64_t kCtrlAck = 1;
constexpr std::uint64_t kCtrlDone = 2;

/// Process-wide cumulative phase counters (what SENKF_TRACE-era tooling
/// and the registry snapshot expose).  SenkfStats never diffs these: its
/// per-run numbers come from the run ledger below, so back-to-back runs
/// and registry resets cannot contaminate a run's stats.
struct PhaseCounters {
  telemetry::Counter& io_read_ns;
  telemetry::Counter& io_send_ns;
  telemetry::Counter& comp_wait_ns;
  telemetry::Counter& comp_update_ns;
  telemetry::Counter& messages;
  telemetry::Counter& read_retries;
  telemetry::Counter& bars_reissued;
  telemetry::Counter& duplicate_blocks;
  telemetry::Counter& members_dropped;

  static PhaseCounters& get() {
    auto& registry = telemetry::Registry::global();
    static PhaseCounters counters{
        registry.counter("senkf.io_read_ns"),
        registry.counter("senkf.io_send_ns"),
        registry.counter("senkf.comp_wait_ns"),
        registry.counter("senkf.comp_update_ns"),
        registry.counter("senkf.messages"),
        registry.counter("senkf.read.retries"),
        registry.counter("senkf.read.reissued"),
        registry.counter("senkf.read.duplicate_blocks"),
        registry.counter("senkf.member.dropped"),
    };
    return counters;
  }

};

/// One (rank, stage) cell of the run ledger.  Atomic counters because
/// the rank's helper, pool and reader threads feed them; the dual-counter
/// CountedSpan adds the same interval here and to the global
/// PhaseCounters from one clock pair.
struct StageCell {
  telemetry::Counter read_ns;    ///< bar-read spans (mirrors senkf.io_read_ns)
  telemetry::Counter obtain_ns;  ///< full acquisition incl. injected delays
  telemetry::Counter send_ns;
  telemetry::Counter wait_ns;
  telemetry::Counter update_ns;
  /// When the rank's main thread closed the stage: the timestamp of the
  /// stage's series points.
  std::int64_t boundary_ns = 0;
};

/// One rank's per-run counts in the run ledger.
struct RankCounts {
  telemetry::Counter messages;
  telemetry::Counter retries;
  telemetry::Counter reissued;
  std::uint64_t backlog_peak = 0;  ///< written by the rank's main thread
};

/// Run-scoped observability state shared by every rank thread.  The run
/// ledger (DESIGN.md §11) is a StageCell per (rank, stage) plus a
/// RankCounts per rank.  A rank's threads write only that rank's entries,
/// and senkf() reads the ledger only after Runtime::run has joined every
/// rank thread, so the per-run numbers need no messages and no merge.
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

/// Bucket ladder for the per-stage acquisition histogram every I/O rank
/// contributes to the aggregate (μs, 10 → ~41 s).
const std::vector<double>& stage_obtain_bounds() {
  static const std::vector<double> bounds =
      telemetry::exponential_bounds(10.0, 4.0, 12);
  return bounds;
}

std::int64_t ratio_milli(double ratio) {
  return static_cast<std::int64_t>(ratio * 1e3);
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
/// deadlocking the pipeline.  Duplicate blocks (a straggler whose bar was
/// re-issued can race its replacement) are counted and dropped, never an
/// error.
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
      PhaseCounters::get().duplicate_blocks.add(1);
      return;
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
  /// it as missing in every stage.  Idempotent (several I/O readers can
  /// discover the same dead file).
  void mark_dead(Index member, const parcomm::SpanContext& ctx) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_[member] != 0) return;
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

  /// True once every stage has every member accounted (or the run was
  /// aborted) — the helper thread's termination condition.
  bool complete() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (aborted_) return true;
    for (Index stage = 0; stage < layers_; ++stage) {
      if (accounted_[stage] != members_) return false;
    }
    return true;
  }

  /// Wakes everyone and makes take_stage throw: called when the helper
  /// thread dies or a peer rank announced it is unwinding, so the main
  /// thread never blocks on stage data that can no longer arrive.
  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
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
    cv_.wait(lock, [&] { return aborted_ || accounted_[stage] == members_; });
    if (aborted_) {
      throw ProtocolError("senkf: run aborted before stage data completed");
    }
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

  /// Sorted dead members (stable once every stage completed).
  std::vector<Index> dead_members() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Index> out;
    for (Index k = 0; k < members_; ++k) {
      if (dead_[k] != 0) out.push_back(k);
    }
    return out;
  }

 private:
  Index layers_;
  Index members_;
  std::vector<std::optional<grid::PatchView>> patches_;
  std::vector<parcomm::SharedPayload> owners_;
  std::vector<Index> accounted_;
  std::vector<parcomm::SpanContext> cause_;  ///< per stage, see deposit()
  std::vector<std::uint8_t> dead_;
  bool aborted_ = false;
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
  int io_rank(Index group, Index slot) const {
    return static_cast<int>(config_.computation_ranks() + group * config_.n_sdy +
                            slot);
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
  /// resets; the send time also lands in `stage_send_ns`.  A batch with
  /// no members sends nothing.
  void flush(parcomm::Communicator& world, PhaseCounters& phases,
             telemetry::Counter& stage_send_ns) {
    if (members_added_ == 0) return;
    telemetry::CountedSpan send_span(telemetry::Category::kSend,
                                     "block_scatter", phases.io_send_ns,
                                     &stage_send_ns,
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

/// Cuts `bar` (the stage-l expanded bar of `member` for latitude row
/// `slot`) into per-sub-domain blocks and sends them to the row's
/// computation ranks — a single-member batch (the straggler re-issue
/// path; the main schedule coalesces whole layers).
void scatter_bar(parcomm::Communicator& world, const RankLayout& layout,
                 const grid::Decomposition& decomposition,
                 const SenkfConfig& config, Index l, Index member, Index slot,
                 const grid::Patch& bar, PhaseCounters& phases,
                 telemetry::Counter& stage_send_ns) {
  BlockBatch batch(layout, decomposition, config, l, slot, 1);
  batch.add(member, bar);
  batch.flush(world, phases, stage_send_ns);
}

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

/// One bar read executed off the I/O rank's main thread, so the main
/// thread can give up after the straggler deadline and re-issue the bar
/// to a group peer while the slow read keeps grinding in the background.
/// Abandoned results are discarded on completion (the re-issued copy is
/// the one that reaches the computation ranks), so duplicates can only
/// arise from protocol races — which StageBuffers tolerates anyway.
class BarReader {
 public:
  enum class Status { kOk, kTimeout, kDead };
  struct Outcome {
    Status status = Status::kOk;
    grid::Patch bar;
  };

  using ReadFn = std::function<grid::Patch(Index, grid::IndexRange, Index)>;

  BarReader(ReadFn read_fn, int world_rank)
      : read_fn_(std::move(read_fn)), worker_([this, world_rank] {
          telemetry::set_thread_rank(world_rank);
          loop();
        }) {}

  ~BarReader() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  /// Blocks up to `deadline` for the read; kTimeout abandons the request
  /// (its eventual result is dropped).
  Outcome read(Index member, grid::IndexRange rows, Index stage,
               std::chrono::nanoseconds deadline) {
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      id = next_id_++;
      queue_.push_back(Request{member, rows, stage, id});
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    const bool done = cv_.wait_for(lock, deadline, [&] {
      return results_.find(id) != results_.end();
    });
    if (!done) {
      abandoned_.insert(id);
      return Outcome{Status::kTimeout, {}};
    }
    Outcome outcome = std::move(results_[id]);
    results_.erase(id);
    return outcome;
  }

 private:
  struct Request {
    Index member;
    grid::IndexRange rows;
    Index stage;
    std::uint64_t id;
  };

  void loop() {
    for (;;) {
      Request request;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        request = queue_.front();
        queue_.pop_front();
      }
      Outcome outcome;
      try {
        outcome.bar = read_fn_(request.member, request.rows, request.stage);
        outcome.status = Status::kOk;
      } catch (const pfs::PermanentReadError&) {
        outcome.status = Status::kDead;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (abandoned_.erase(request.id) == 0) {
          results_[request.id] = std::move(outcome);
        }
      }
      cv_.notify_all();
    }
  }

  ReadFn read_fn_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  std::map<std::uint64_t, Outcome> results_;
  std::set<std::uint64_t> abandoned_;
  std::uint64_t next_id_ = 0;
  bool stop_ = false;
  std::thread worker_;
};

void run_io_rank(parcomm::Communicator& world, const RankLayout& layout,
                 const grid::Decomposition& decomposition,
                 const EnsembleStore& store, const SenkfConfig& config,
                 ObservabilityContext& ctx) {
  const Index group = layout.io_group(world.rank());
  const Index slot = layout.io_slot(world.rank());
  const Index n_members = store.members();
  const int my_rank = world.rank();
  PhaseCounters& phases = PhaseCounters::get();
  RankCounts& counts = ctx.counts[static_cast<Index>(my_rank)];
  const pfs::FaultInjector* injector = injector_of(store);
  const int io_ordinal =
      world.rank() - static_cast<int>(config.computation_ranks());
  const std::chrono::nanoseconds straggle =
      injector != nullptr ? injector->straggler_delay(io_ordinal)
                          : std::chrono::nanoseconds::zero();
  const bool reissue_enabled =
      config.fault.straggler_deadline_s > 0.0 && config.n_sdy > 1;
  const auto deadline = std::chrono::nanoseconds(static_cast<std::int64_t>(
      config.fault.straggler_deadline_s * 1e9));
  const pfs::Sleeper sleeper = pfs::real_sleeper();

  /// Rows of the stage-l expanded bar for latitude row `for_slot`
  /// (identical across i; geometry shared with the timing plane).
  const auto bar_rows = [&](Index for_slot, Index l) {
    return decomposition
        .layer_expansion(grid::SubdomainId{0, for_slot}, l, config.layers)
        .y;
  };

  // The complete degraded read of one bar: injected straggler delay, then
  // the store read under the retry policy (TransientReadError → capped
  // exponential backoff with deterministic jitter → retry; exhaustion →
  // PermanentReadError).  Runs on the main thread, or on the BarReader
  // worker when straggler re-issue is armed.  Its time lands in this
  // rank's ledger cell of stage l, even when the main thread has moved on
  // (an abandoned read finishes late) or l is a peer's stage (a served
  // re-issue).
  const auto perform_read = [&](Index member, grid::IndexRange rows,
                                Index l) -> grid::Patch {
    StageCell& cell = ctx.cell(my_rank, l);
    // obtain_ns covers the whole degraded acquisition — injected delay,
    // backoff sleeps, retries — which is what the straggler check must
    // see; read_ns mirrors the global bar-read span (successful read
    // time only).
    telemetry::ScopedTimerNs obtain_timer(cell.obtain_ns);
    // Traced sibling of obtain_ns: the critical-path walker needs the
    // injected delay and backoff sleeps covered by a span, or a straggler
    // shows up as untracked time instead of disk time on this rank.
    telemetry::TraceSpan obtain_span(telemetry::Category::kRead, "bar_obtain",
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
                                           "bar_read", phases.io_read_ns,
                                           &cell.read_ns,
                                           static_cast<std::int32_t>(l));
          return store.read_bar(member, rows);
        },
        [&](int) {
          phases.read_retries.add(1);
          counts.retries.add(1);
        });
  };

  std::set<Index> dead;
  const auto handle_permanent = [&](Index member, Index for_slot) {
    if (!config.fault.drop_unreadable_members) {
      // Tell every computation rank the run is unwinding before we throw,
      // so their main threads wake instead of waiting for stage data that
      // will never arrive.
      for (Index j = 0; j < config.n_sdy; ++j) {
        for (Index i = 0; i < config.n_sdx; ++i) {
          parcomm::Packer abort_msg;
          abort_msg.put<std::uint64_t>(kKindAbort);
          world.send(layout.comp_rank(i, j), kBlockTag, abort_msg.take());
        }
      }
      throw pfs::PermanentReadError(
          "senkf: member " + std::to_string(member) +
          " unreadable and drop_unreadable_members is off");
    }
    dead.insert(member);
    announce_dead(world, layout, config, member, for_slot);
  };

  std::optional<BarReader> reader;
  if (reissue_enabled) reader.emplace(perform_read, world.rank());

  // ---- straggler re-issue protocol (kIoCtrlTag, I/O peers of one group).
  // reissue{l, member, slot}: "read this bar for me and scatter it to my
  // row" — served between own reads and while waiting for acks/dones.
  // ack{l, member}: the re-issued bar reached the requester's row.
  // done: the sender finished its own schedule.  A rank exits once its
  // own schedule is resolved (all acks in) and every peer sent done;
  // per-(source, tag) ordering guarantees no request can trail its
  // sender's done.
  std::set<std::pair<Index, Index>> pending_acks;
  Index peers_done = 0;
  const Index n_peers = config.n_sdy - 1;

  const auto serve_reissue = [&](Index l, Index member, Index req_slot,
                                 int requester) {
    if (dead.count(member) != 0) {
      announce_dead(world, layout, config, member, req_slot);
    } else {
      try {
        const grid::Patch bar = perform_read(member, bar_rows(req_slot, l), l);
        scatter_bar(world, layout, decomposition, config, l, member, req_slot,
                    bar, phases, ctx.cell(my_rank, l).send_ns);
      } catch (const pfs::PermanentReadError&) {
        handle_permanent(member, req_slot);
      }
    }
    parcomm::Packer ack;
    ack.put<std::uint64_t>(kCtrlAck);
    ack.put<std::uint64_t>(l);
    ack.put<std::uint64_t>(member);
    world.send(requester, kIoCtrlTag, ack.take());
  };

  const auto handle_ctrl = [&](const parcomm::Envelope& envelope) {
    parcomm::Unpacker unpacker(envelope.payload);
    const auto kind = unpacker.get<std::uint64_t>();
    if (kind == kCtrlReissue) {
      const auto l = unpacker.get<std::uint64_t>();
      const auto member = unpacker.get<std::uint64_t>();
      const auto req_slot = unpacker.get<std::uint64_t>();
      serve_reissue(l, member, req_slot, envelope.source);
    } else if (kind == kCtrlAck) {
      const auto l = unpacker.get<std::uint64_t>();
      const auto member = unpacker.get<std::uint64_t>();
      pending_acks.erase({l, member});
    } else {
      SENKF_REQUIRE(kind == kCtrlDone, "senkf: unknown I/O control kind");
      ++peers_done;
    }
  };

  const auto drain_ctrl = [&] {
    while (world.iprobe(parcomm::kAnySource, kIoCtrlTag)) {
      handle_ctrl(world.recv(parcomm::kAnySource, kIoCtrlTag));
    }
  };

  const Index members_per_group =
      (n_members + config.n_cg - 1) / config.n_cg;
  for (Index l = 0; l < config.layers; ++l) {
    const grid::IndexRange rows = bar_rows(slot, l);
    // One coalesced batch per (destination, layer): every member's block
    // rides in the same message (re-issued stragglers arrive separately
    // from the serving peer).
    BlockBatch batch(layout, decomposition, config, l, slot,
                     members_per_group);
    for (Index member = group; member < n_members; member += config.n_cg) {
      if (dead.count(member) != 0) continue;
      if (!reissue_enabled) {
        grid::Patch bar;
        try {
          bar = perform_read(member, rows, l);
        } catch (const pfs::PermanentReadError&) {
          handle_permanent(member, slot);
          continue;
        }
        batch.add(member, bar);
        continue;
      }

      drain_ctrl();  // serve peers between own reads, not just at the end
      const BarReader::Outcome outcome = reader->read(member, rows, l, deadline);
      switch (outcome.status) {
        case BarReader::Status::kOk:
          batch.add(member, outcome.bar);
          break;
        case BarReader::Status::kDead:
          handle_permanent(member, slot);
          break;
        case BarReader::Status::kTimeout: {
          // Deadline blown: hand the bar to the next reader of the group
          // and move on — the stage pipeline keeps flowing while this
          // rank's slow read finishes (and is then discarded).
          const Index peer_slot = (slot + 1) % config.n_sdy;
          parcomm::Packer request;
          request.put<std::uint64_t>(kCtrlReissue);
          request.put<std::uint64_t>(l);
          request.put<std::uint64_t>(member);
          request.put<std::uint64_t>(slot);
          world.send(layout.io_rank(group, peer_slot), kIoCtrlTag,
                     request.take());
          pending_acks.insert({l, member});
          phases.bars_reissued.add(1);
          counts.reissued.add(1);
          SENKF_LOG_WARN("senkf: io rank ", world.rank(),
                         " re-issued bar (stage ", l, ", member ", member,
                         ") past the straggler deadline");
          break;
        }
      }
    }
    batch.flush(world, phases, ctx.cell(my_rank, l).send_ns);
    // Stage boundary: the timestamp of the stage's series points.
    ctx.cell(my_rank, l).boundary_ns = telemetry::now_ns();
  }

  if (reissue_enabled) {
    for (Index s = 0; s < config.n_sdy; ++s) {
      if (s == slot) continue;
      parcomm::Packer done;
      done.put<std::uint64_t>(kCtrlDone);
      world.send(layout.io_rank(group, s), kIoCtrlTag, done.take());
    }
    while (!pending_acks.empty() || peers_done < n_peers) {
      handle_ctrl(world.recv(parcomm::kAnySource, kIoCtrlTag));
    }
    // ~BarReader waits for any abandoned slow read still in flight.
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
                   std::vector<grid::Field>* result_out,
                   std::vector<Index>* dropped_out) {
  const grid::SubdomainId my_id{layout.comp_i(world.rank()),
                                layout.comp_j(world.rank())};
  const Index n_members = store.members();
  const int my_rank = world.rank();
  PhaseCounters& phases = PhaseCounters::get();
  RankCounts& counts = ctx.counts[static_cast<Index>(my_rank)];
  StageBuffers buffers(config.layers, n_members);

  // Helper thread (§4.2): drains block and dead-member messages for this
  // rank into the stage buffers until every (stage, member) pair is
  // accounted — block arrived or member declared dead — and signals the
  // main thread per completed stage.  Its own failures are captured and
  // rethrown after the join; the join itself is guaranteed even when the
  // main thread unwinds (the I/O ranks keep resolving the remaining
  // members regardless, so the helper always drains to completion or
  // times out via the mailbox deadline).
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
        if (kind == kKindAbort) {
          buffers.abort();  // complete() turns true; the loop exits
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
      buffers.abort();  // never leave the main thread blocked on us
    }
  });
  struct JoinGuard {
    std::thread& thread;
    ~JoinGuard() {
      if (thread.joinable()) thread.join();
    }
  } join_guard{helper};

  // Analysis pool (§4.2 extended): each completed stage is submitted as
  // an independent task, so while the helper thread drains stage l+1 and
  // the main thread blocks on take_stage, up to `analysis_threads` layer
  // analyses run concurrently.  Every task writes only its own slot of
  // `locals` / `stage_data`, and the results are packed in layer order
  // below — bit-identical output for any pool width.
  ThreadPool pool(
      ThreadPool::resolve_thread_count(config.analysis_threads));
  std::vector<StageBuffers::Stage> stage_data(config.layers);
  // Each task packs its layer's results straight off the analysis
  // projection ([u64 member][patch block] per member, exact-reserved), so
  // the main thread concatenates payload bytes instead of re-packing
  // owning patches.
  std::vector<parcomm::Packer> layer_packs(config.layers);

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
                                       "stage_wait", phases.comp_wait_ns,
                                       &cell.wait_ns,
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
    // Stage boundary: the timestamp of the stage's wait_s point.
    cell.boundary_ns = telemetry::now_ns();

    pool.submit([&, l, my_rank] {
      telemetry::set_thread_rank(my_rank);
      telemetry::CountedSpan update_span(telemetry::Category::kUpdate,
                                         "local_analysis",
                                         phases.comp_update_ns,
                                         &ctx.cell(my_rank, l).update_ns,
                                         static_cast<std::int32_t>(l));
      const grid::Rect target = decomposition.layer(my_id, l, config.layers);
      const StageBuffers::Stage& stage = stage_data[l];
      SENKF_REQUIRE(stage.patches.size() >= 2,
                    "local_analysis: need at least 2 ensemble members");
      const grid::Rect expansion = stage.patches.front().rect();
      parcomm::Packer& pack = layer_packs[l];
      pack.reserve(stage.live.size() *
                   (sizeof(std::uint64_t) + packed_patch_size(target)));
      LocalAnalysisWorkspace& ws = LocalAnalysisWorkspace::for_this_thread();
      // N−k degradation: the analysis runs on the surviving members with
      // the matching Yˢ columns; every ensemble moment is computed over
      // the live count, so the weights renormalize by construction.
      if (stage.live.size() == n_members) {
        local_analysis_packed(stage.patches, expansion, target, observations,
                              perturbed, config.analysis, stage.live, ws,
                              pack);
      } else {
        const linalg::Matrix live_ys = select_columns(perturbed, stage.live);
        local_analysis_packed(stage.patches, expansion, target, observations,
                              live_ys, config.analysis, stage.live, ws, pack);
      }
    });
  }
  pool.wait_idle();

  // A member must be live in every stage or none: its file is dead from
  // the start or not at all (retry budgets outlast transient bursts).  A
  // mid-run death would mean stages analysed different ensembles.
  const std::vector<Index>& live = stage_data[0].live;
  for (Index l = 1; l < config.layers; ++l) {
    SENKF_REQUIRE(stage_data[l].live == live,
                  "senkf: member died mid-run; stages saw different ensembles");
  }

  parcomm::Packer results;
  {
    // Exact-size packing: one reserve (pool-recycled when a buffer
    // fits), zero reallocation while the layers stream in.
    std::size_t bytes = sizeof(std::uint64_t);
    for (Index l = 0; l < config.layers; ++l) {
      bytes += live.size() *
               (sizeof(std::uint64_t) +
                packed_patch_size(decomposition.layer(my_id, l, config.layers)));
    }
    results.reserve(bytes);
  }
  results.put<std::uint64_t>(config.layers * live.size());
  for (Index l = 0; l < config.layers; ++l) {
    const parcomm::Payload payload = layer_packs[l].take();
    results.put_raw(payload.data(), payload.size());
  }
  helper.join();
  if (helper_error) std::rethrow_exception(helper_error);

  phases.messages.add(helper_messages);
  counts.messages.add(helper_messages);

  if (world.rank() != 0) {
    world.send(0, kResultTag, results.take());
    return;
  }

  // Rank 0 assembles the analysis fields for the surviving members.
  const std::vector<Index> dropped = buffers.dead_members();
  phases.members_dropped.add(dropped.size());
  std::vector<Index> position(n_members, n_members);
  std::vector<grid::Field> fields;
  fields.reserve(live.size());
  const pfs::Sleeper sleeper = pfs::real_sleeper();
  for (std::size_t idx = 0; idx < live.size(); ++idx) {
    const Index member = live[idx];
    position[member] = static_cast<Index>(idx);
    // Background loads go through the same retry policy as bar reads: a
    // transient fault here must not abort a run the pipeline survived.
    fields.push_back(pfs::with_retry(
        config.fault.retry, pfs::op_key(member, ~std::uint64_t{0}), sleeper,
        [&] { return store.load_member(member); },
        [&](int) {
          phases.read_retries.add(1);
          counts.retries.add(1);
        }));
  }
  // `position` maps a member to its field slot; dropped members have none.
  insert_results(results.take_shared(), position, fields);
  for (Index r = 1; r < config.computation_ranks(); ++r) {
    parcomm::Envelope envelope;
    {
      telemetry::TraceSpan wait_span(telemetry::Category::kWait,
                                     "result_wait");
      envelope = world.recv(static_cast<int>(r), kResultTag);
      wait_span.set_flow(telemetry::FlowDir::kIn, envelope.ctx.span_id);
    }
    insert_results(envelope.payload, position, fields);
  }
  *result_out = std::move(fields);
  *dropped_out = dropped;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The run's aggregate, read off the ledger once every rank thread has
/// joined: one RankSample per rank in rank order, one `ts.rankN.*` point
/// per stage at its boundary time (DESIGN.md §13), and the per-stage
/// acquisition histogram.  `stage_samples[l]` receives the I/O ranks'
/// stage-l samples (obtain_s = that stage's acquisition) for the
/// straggler check.
telemetry::MetricsSnapshot read_ledger(
    ObservabilityContext& ctx, const RankLayout& layout,
    std::vector<std::vector<telemetry::RankSample>>& stage_samples) {
  telemetry::MetricsSnapshot agg;
  stage_samples.assign(ctx.stages, {});
  for (Index r = 0; r < ctx.counts.size(); ++r) {
    const int rank = static_cast<int>(r);
    telemetry::RankSample sample;
    sample.rank = rank;
    sample.is_io = layout.is_io(rank) ? 1 : 0;
    if (sample.is_io != 0) {
      sample.group = static_cast<std::int32_t>(layout.io_group(rank));
    }
    const std::string prefix = "ts.rank" + std::to_string(rank) + ".";
    for (Index l = 0; l < ctx.stages; ++l) {
      const StageCell& cell = ctx.cell(rank, l);
      const double read_s = seconds(cell.read_ns.value());
      const double obtain_s = seconds(cell.obtain_ns.value());
      const double send_s = seconds(cell.send_ns.value());
      const double wait_s = seconds(cell.wait_ns.value());
      sample.read_s += read_s;
      sample.obtain_s += obtain_s;
      sample.send_s += send_s;
      sample.wait_s += wait_s;
      sample.update_s += seconds(cell.update_ns.value());
      if (sample.is_io == 0) {
        agg.append_series(prefix + "wait_s", cell.boundary_ns, wait_s);
        continue;
      }
      agg.observe_histogram("senkf.rank.stage_obtain_us",
                            stage_obtain_bounds(), obtain_s * 1e6);
      agg.append_series(prefix + "obtain_s", cell.boundary_ns, obtain_s);
      agg.append_series(prefix + "read_s", cell.boundary_ns, read_s);
      agg.append_series(prefix + "send_s", cell.boundary_ns, send_s);
      telemetry::RankSample stage;
      stage.rank = rank;
      stage.is_io = 1;
      stage.group = sample.group;
      stage.obtain_s = obtain_s;
      stage_samples[l].push_back(stage);
    }
    const RankCounts& counts = ctx.counts[r];
    sample.messages = counts.messages.value();
    sample.retries = counts.retries.value();
    sample.reissued = counts.reissued.value();
    sample.backlog_peak = counts.backlog_peak;
    agg.ranks.push_back(sample);
  }
  return agg;
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
  SENKF_REQUIRE(config.fault.straggler_deadline_s >= 0.0,
                "senkf: straggler_deadline_s must be >= 0");

  const RankLayout layout(config);
  std::vector<grid::Field> result;
  std::vector<Index> dropped;

  // Continuous telemetry: arm the background registry sampler (no-op
  // unless SENKF_SAMPLE_MS enables it), the live operations plane
  // (SENKF_HTTP endpoint, SENKF_PROFILE sampler, SENKF_WATCHDOG — all
  // no-ops when unset), and remember the cycle's start so the
  // critical-path window excludes spans from earlier cycles.
  telemetry::ensure_sampler_started();
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

  // When drop_unreadable_members is off, the failing io rank broadcasts
  // an abort before throwing PermanentReadError, so computation ranks
  // wake with a ProtocolError — and whichever thread errors *first* is
  // what Runtime::run rethrows.  Record the root cause here so the
  // caller always sees the PermanentReadError, not a racing secondary.
  std::mutex abort_mutex;
  std::exception_ptr abort_error;

  try {
    parcomm::Runtime::run(
        static_cast<int>(config.total_ranks()),
        [&](parcomm::Communicator& world) {
          if (layout.is_io(world.rank())) {
            try {
              run_io_rank(world, layout, decomposition, store, config, ctx);
            } catch (const pfs::PermanentReadError&) {
              const std::lock_guard<std::mutex> lock(abort_mutex);
              if (!abort_error) abort_error = std::current_exception();
              throw;
            }
          } else {
            run_comp_rank(world, layout, decomposition, store, observations,
                          perturbed, config, ctx, &result, &dropped);
          }
        });
  } catch (...) {
    // Ordered teardown before the flush: quiesce the liveops threads
    // (watchdog, profiler, endpoint) so none of them writes the export
    // files concurrently with us, then flush-on-fault — a failed run
    // still writes its (partial) trace and report, often the only
    // evidence of what went wrong.  The next run's ensure_* calls
    // re-arm whatever the environment enables.
    telemetry::shutdown();
    telemetry::flush_exports(/*partial=*/true);
    if (abort_error) std::rethrow_exception(abort_error);
    throw;
  }

  SENKF_REQUIRE(!result.empty(), "senkf: no result produced");

  // Everything below derives from the run ledger, never from
  // process-cumulative counters.  Every total is a sum over the per-rank
  // samples, so the report's "phases = Σ ranks" invariant holds by
  // construction.
  using telemetry::RankSample;
  std::vector<std::vector<RankSample>> stage_samples;
  telemetry::MetricsSnapshot agg = read_ledger(ctx, layout, stage_samples);
  const double io_read_s = sum_over_ranks(agg.ranks, &RankSample::read_s);
  const double io_send_s = sum_over_ranks(agg.ranks, &RankSample::send_s);
  const double comp_wait_s = sum_over_ranks(agg.ranks, &RankSample::wait_s);
  const double comp_update_s = sum_over_ranks(agg.ranks, &RankSample::update_s);

  const telemetry::SkewStats run_skew = telemetry::read_skew(agg.ranks);
  const std::uint64_t backlog_peak = telemetry::drain_backlog_peak(agg.ranks);
  auto& registry = telemetry::Registry::global();
  registry.gauge("senkf.skew.read").set(ratio_milli(run_skew.ratio));
  registry.gauge("senkf.backlog.peak")
      .set(static_cast<std::int64_t>(backlog_peak));

  // Straggler check (DESIGN.md §11): every stage's read balance across
  // the I/O ranks' ledger cells of that stage.
  double worst_stage_ratio = 0.0;
  double worst_group_ratio = 0.0;
  std::uint64_t straggler_warns = 0;
  const std::vector<telemetry::StageSkew> stages =
      telemetry::stage_read_skew(stage_samples);
  for (std::size_t stage = 0; stage < stages.size(); ++stage) {
    const telemetry::SkewStats& skew = stages[stage].read;
    worst_stage_ratio = std::max(worst_stage_ratio, skew.ratio);
    worst_group_ratio = std::max(worst_group_ratio, stages[stage].group.ratio);
    if (skew.ratio < kStragglerRatio || skew.max_s < kStragglerFloorS) continue;
    ++straggler_warns;
    registry.gauge("senkf.straggler.last_rank").set(skew.max_rank);
    SENKF_LOG_WARN("senkf: stage ", stage, " read straggler: rank ",
                   skew.max_rank, " took ", skew.max_s, " s vs stage mean ",
                   skew.mean_s, " s (x", skew.ratio, ", threshold x",
                   kStragglerRatio, ")");
  }
  registry.counter("senkf.straggler.warns").add(straggler_warns);
  registry.gauge("senkf.skew.stage_read").set(ratio_milli(worst_stage_ratio));
  registry.gauge("senkf.skew.group_read").set(ratio_milli(worst_group_ratio));

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

  // Cycle boundary: snapshot the registry into the process time-series
  // (the drift gauges set above become a per-cycle trend point), then
  // attribute this cycle's critical path from the spans it recorded.
  telemetry::TimeSeriesRecorder::global().sample(telemetry::Registry::global());
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
    stats->messages = sum_over_ranks(agg.ranks, &RankSample::messages);
    stats->read_retries = sum_over_ranks(agg.ranks, &RankSample::retries);
    stats->bars_reissued = sum_over_ranks(agg.ranks, &RankSample::reissued);
    stats->dropped_members = dropped;
    stats->straggler_warns = straggler_warns;
    stats->read_skew = run_skew.ratio;
    stats->ranks = agg.ranks;
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
  report.aggregate = std::move(agg);
  telemetry::set_run_report(std::move(report));

  return result;
}

}  // namespace senkf::enkf
