// S-EnKF: the paper's contribution (§4), numeric plane.
//
// The processor set splits into
//   * C₂ = n_sdx · n_sdy computation ranks, one per sub-domain, and
//   * C₁ = n_cg · n_sdy I/O ranks arranged as n_cg concurrent groups of
//     n_sdy bar readers (§4.1.3);
// driven by the multi-stage workflow of §4.2 / Fig. 8:
//
//   for each stage l = 0 .. L−1:
//     I/O rank (g, j):  read the stage-l expanded bar of every member file
//                       owned by group g (one contiguous read each), cut it
//                       into per-sub-domain blocks, send block (i, j) to
//                       computation rank (i, j);
//     computation rank (i, j):  a *helper thread* drains the incoming
//                       block messages into stage buffers and signals the
//                       main thread, which starts the local analysis of
//                       layer l as soon as its stage data is complete —
//                       overlapping its update of stage l with the
//                       reading/communication of stage l+1.
//
// Numerics are the shared local_analysis kernel, so the result is
// bit-identical to serial_enkf/penkf with the same decomposition and
// layer count (asserted in tests); only the schedule differs.
#pragma once

#include "enkf/serial_enkf.hpp"
#include "pfs/faults.hpp"
#include "telemetry/report.hpp"

namespace senkf::enkf {

/// How the read path behaves when the file system misbehaves
/// (DESIGN.md §9).  Defaults survive transient faults out of the box.
struct FaultToleranceOptions {
  /// Bar-read retry schedule: capped exponential backoff with
  /// deterministic jitter; exhausting it converts the failure into a
  /// permanent one.
  pfs::RetryPolicy retry;
  /// Drop an ensemble member whose file is permanently unreadable and
  /// continue the analysis on the surviving N−k members (ensemble
  /// weights renormalize automatically: every moment is computed over
  /// the live members).  When false the failure is rethrown and the run
  /// aborts.
  bool drop_unreadable_members = true;
};

struct SenkfConfig {
  Index n_sdx = 1;
  Index n_sdy = 1;
  Index layers = 1;  ///< L
  Index n_cg = 1;    ///< concurrent groups
  /// Width of each computation rank's analysis thread pool: completed
  /// stages are handed to the pool so several layers update concurrently
  /// while the helper thread keeps draining blocks.  0 = hardware
  /// concurrency capped at 8 (ThreadPool::default_thread_count); each
  /// layer writes only its own target of the output fields, so any width
  /// produces bit-identical analyses.
  Index analysis_threads = 0;
  AnalysisOptions analysis;
  FaultToleranceOptions fault;

  Index computation_ranks() const { return n_sdx * n_sdy; }
  Index io_ranks() const { return n_cg * n_sdy; }
  Index total_ranks() const { return computation_ranks() + io_ranks(); }
};

/// Per-run instrumentation (numeric-plane analogue of Fig. 9's phases).
///
/// Every field is derived from the run's own ledger: each rank
/// accumulates its phase times per stage into its own ledger cells (one
/// CountedSpan per interval), and senkf() reads the ledger once every
/// rank thread has joined; each total below is the sum of `ranks`.  The
/// same read adds the totals to the process-cumulative `senkf.*`
/// registry counters, on the fault path too.
/// From the same ledger it checks every stage's read balance and WARNs
/// on stragglers (DESIGN.md §11).  Because the numbers are per-run by
/// construction, back-to-back runs in one process never inherit each
/// other's totals, and a Registry::reset() between runs cannot skew
/// them.
/// `comp_update_seconds` sums the execution time of each analysis task
/// on whichever pool thread ran it — with `analysis_threads > 1` it can
/// exceed a rank's wall-clock (work ran concurrently), and
/// `comp_wait_seconds` is main-thread blocking only, so the two never
/// double-count overlapped intervals.
struct SenkfStats {
  double io_read_seconds = 0.0;    ///< wall time I/O ranks spent reading
  double io_send_seconds = 0.0;    ///< wall time I/O ranks spent sending
  double comp_wait_seconds = 0.0;  ///< main threads blocked on stage data
  double comp_update_seconds = 0.0;  ///< summed analysis-task time
  std::uint64_t messages = 0;      ///< block messages delivered
  std::uint64_t read_retries = 0;  ///< bar-read attempts beyond the first
  /// Members dropped because their files were permanently unreadable
  /// (sorted); the returned ensemble holds the surviving members in
  /// member order.
  std::vector<Index> dropped_members;
  /// Straggler WARNs the run-end per-stage read-skew check raised.
  std::uint64_t straggler_warns = 0;
  /// Whole-run bar-acquisition skew across I/O ranks (slowest / mean;
  /// 1 = perfectly balanced, 0 = no I/O samples).
  double read_skew = 0.0;
  /// Per-rank phase samples (in rank order) from the run ledger.
  std::vector<telemetry::RankSample> ranks;
};

/// Runs S-EnKF on C₁ + C₂ thread-backed ranks; returns the analysis
/// ensemble — one Field per *surviving* member (all N unless
/// `config.fault.drop_unreadable_members` dropped some).  `stats`, when
/// non-null, receives the phase instrumentation.
std::vector<grid::Field> senkf(const EnsembleStore& store,
                               const obs::ObservationSet& observations,
                               const linalg::Matrix& perturbed,
                               const SenkfConfig& config,
                               SenkfStats* stats = nullptr);

}  // namespace senkf::enkf
