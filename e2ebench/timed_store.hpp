// Timing EnsembleStore decorator for the traced run.
//
// Forwards every read to the wrapped store (which keeps its own segment
// accounting, as FaultyEnsembleStore does) and adds, per access kind,
// the number of calls, the seconds spent in them and the bytes they
// returned.  While tracing is armed each call also records one kRead
// span on the calling rank, so the critical-path walk attributes store
// time to disk even for the in-memory backend, which has no spans of
// its own.
#pragma once

#include <atomic>
#include <cstdint>

#include "enkf/ensemble_store.hpp"

namespace e2e {

using senkf::grid::Index;

class TimedEnsembleStore final : public senkf::enkf::EnsembleStore {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    double seconds = 0.0;
    std::uint64_t bytes = 0;
  };

  /// `base` must outlive the decorator.
  explicit TimedEnsembleStore(const senkf::enkf::EnsembleStore& base)
      : base_(base) {}

  const senkf::grid::LatLonGrid& grid() const override { return base_.grid(); }
  Index members() const override { return base_.members(); }
  senkf::grid::Field load_member(Index k) const override;
  senkf::grid::Patch read_block(Index k, senkf::grid::Rect rect) const override;
  senkf::grid::Patch read_bar(Index k,
                              senkf::grid::IndexRange rows) const override;

  Totals load_member_totals() const { return load_member_.totals(); }
  Totals read_block_totals() const { return read_block_.totals(); }
  Totals read_bar_totals() const { return read_bar_.totals(); }

  /// Zeroes the per-kind totals here and the segment counters of the
  /// wrapped store.
  void reset() const;
  std::uint64_t base_segments() const { return base_.segments_touched(); }

 private:
  struct Kind {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> bytes{0};

    Totals totals() const {
      return {calls.load(), static_cast<double>(ns.load()) / 1e9,
              bytes.load()};
    }
    void reset() {
      calls.store(0);
      ns.store(0);
      bytes.store(0);
    }
  };

  /// Times `read`, records its span, and charges it to `kind`.
  template <typename Read>
  auto timed(Kind& kind, const char* span_name, Read&& read) const;

  const senkf::enkf::EnsembleStore& base_;
  mutable Kind load_member_;
  mutable Kind read_block_;
  mutable Kind read_bar_;
};

}  // namespace e2e
