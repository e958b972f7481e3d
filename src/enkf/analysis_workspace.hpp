// Per-worker workspace of the zero-allocation analysis hot path
// (DESIGN.md §15).
//
// A LocalAnalysisWorkspace owns one support::Arena and hands the local
// analysis its temporaries as arena-backed scratch Matrix/Vector objects
// (linalg/matrix.hpp).  `reset()` rewinds the arena between patches, so
// after the first patch of the largest shape the engine has seen, an
// analysis performs no heap allocation at all — the property the
// `analysis.alloc.events` counter certifies (its delta stays 0 across a
// steady-state cycle).
//
// Workspaces are checked out of a process-wide pool, one per thread
// (`for_this_thread()`): ThreadPool workers die with their pool at the
// end of a run, but their workspaces — warmed-up chunks included — go
// back to the free list and are re-leased by the next run's workers.
// That is what makes the *second* run / cycle allocation-free, not just
// the second patch.
#pragma once

#include <span>

#include "grid/field.hpp"
#include "linalg/matrix.hpp"
#include "support/arena.hpp"

namespace senkf::enkf {

using grid::Index;

class LocalAnalysisWorkspace {
 public:
  /// Mode is forwarded to the arena — tests pin kPooled/kHeap to compare
  /// the two allocation strategies explicitly; the pool uses kAuto
  /// (SENKF_ARENA).
  explicit LocalAnalysisWorkspace(
      support::Arena::Mode mode = support::Arena::Mode::kAuto);

  LocalAnalysisWorkspace(const LocalAnalysisWorkspace&) = delete;
  LocalAnalysisWorkspace& operator=(const LocalAnalysisWorkspace&) = delete;

  support::Arena& arena() { return arena_; }

  /// Zero-filled scratch matrix in the default padded layout — same
  /// stride, same pad-zero state as an owning `Matrix(rows, cols)`, so
  /// kernel results are bit-identical.
  linalg::Matrix matrix(Index rows, Index cols);

  /// Zero-filled scratch vector.
  linalg::Vector vector(Index size);

  /// Zero-filled raw scratch.
  std::span<double> doubles(Index count);

  /// Index scratch (uninitialized — callers overwrite).
  std::span<linalg::Index> indices(Index count);

  /// Default-constructed PatchView slots (for building AnalysisView
  /// member lists in arena storage).
  std::span<grid::PatchView> views(Index count);

  /// Rewinds the arena (everything handed out above dies) and publishes
  /// the allocation/occupancy metrics:
  ///   analysis.alloc.events   += new heap allocations since last reset
  ///   analysis.arena.resets   += 1
  ///   analysis.arena.high_water  max-updated (bytes)
  ///   analysis.arena.capacity    max-updated (bytes)
  void reset();

  /// This thread's leased workspace (checked out of the process pool on
  /// first use, returned at thread exit).
  static LocalAnalysisWorkspace& for_this_thread();

 private:
  support::Arena arena_;
  std::uint64_t published_allocs_ = 0;
};

}  // namespace senkf::enkf
