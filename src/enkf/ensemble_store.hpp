// The background-ensemble "file system" of the numeric plane.
//
// EnsembleStore is the reading interface every implementation consumes.
// It exposes exactly the two access patterns the paper analyses —
// rectangular *block* reads (one non-contiguous segment per latitude row,
// §4.1.1) and contiguous *bar* reads (one segment, §4.1.2) — and counts
// the segments each access touches, so tests can assert the O(n_y·n_sdx)
// vs O(n_sdy) seek behaviour claimed in §4.1.
//
// Two backends:
//  * MemoryEnsembleStore — members held in RAM; the default for tests and
//    the DES-calibration path;
//  * FileEnsembleStore (file_store.hpp) — members stored as real binary
//    files on disk, reads issued with real seeks.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "grid/field.hpp"
#include "grid/synthetic.hpp"

namespace senkf::enkf {

using grid::Index;

class EnsembleStore {
 public:
  virtual ~EnsembleStore() = default;

  virtual const grid::LatLonGrid& grid() const = 0;
  virtual Index members() const = 0;

  /// Reads the whole member (the serial reference's background); counted
  /// as one contiguous read.  The parallel engines never call it: they
  /// read blocks or bars and write their output from the layer analyses.
  virtual grid::Field load_member(Index k) const = 0;

  /// Block read: extracts `rect` of member `k`; costs one segment per
  /// latitude row unless the rect spans the full grid width.
  virtual grid::Patch read_block(Index k, grid::Rect rect) const = 0;

  /// Bar read: full-width rows [rows.begin, rows.end) of member `k` in a
  /// single contiguous segment.
  virtual grid::Patch read_bar(Index k, grid::IndexRange rows) const = 0;

  /// Segment (disk addressing) counter across all reads; thread-safe.
  std::uint64_t segments_touched() const { return segments_.load(); }
  std::uint64_t reads_issued() const { return reads_.load(); }
  void reset_counters() const;

 protected:
  EnsembleStore() = default;
  // Copy/move carry the counter values (atomics are not copyable, so the
  // compiler cannot generate these).
  EnsembleStore(const EnsembleStore& other)
      : segments_(other.segments_.load()), reads_(other.reads_.load()) {}
  EnsembleStore& operator=(const EnsembleStore& other) {
    segments_.store(other.segments_.load());
    reads_.store(other.reads_.load());
    return *this;
  }

  /// Backends report each access here.
  void count_access(std::uint64_t segments) const;

  /// Shared segment-accounting rule for block reads.
  std::uint64_t block_segments(grid::Rect rect) const;

 private:
  mutable std::atomic<std::uint64_t> segments_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
};

/// Members held in RAM (one flat latitude-row-major buffer each, exactly
/// the byte layout FileEnsembleStore persists).
class MemoryEnsembleStore final : public EnsembleStore {
 public:
  MemoryEnsembleStore(const grid::LatLonGrid& grid_def,
                      std::vector<grid::Field> members);

  /// Builds a synthetic scenario store.
  static MemoryEnsembleStore synthetic(const grid::LatLonGrid& grid_def,
                                       Index n_members, Rng& rng,
                                       double background_error = 0.5);

  const grid::LatLonGrid& grid() const override { return grid_; }
  Index members() const override { return members_.size(); }
  grid::Field load_member(Index k) const override;
  grid::Patch read_block(Index k, grid::Rect rect) const override;
  grid::Patch read_bar(Index k, grid::IndexRange rows) const override;

  /// Zero-copy access to a member (memory backend only).
  const grid::Field& member(Index k) const;

 private:
  grid::LatLonGrid grid_;
  std::vector<grid::Field> members_;
};

}  // namespace senkf::enkf
