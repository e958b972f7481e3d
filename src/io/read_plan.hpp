// Reading plans: the reference schedules of who reads what.
//
// The paper's three reading designs — block reading (§4.1.1), bar reading
// (§4.1.2) and concurrent access (§4.1.3) — are, stripped of their
// execution substrate, *schedules*: an assignment of (member file, region,
// sequence position) to readers.  This module builds those schedules from
// a Decomposition.  Neither execution plane runs them: the numeric
// engines and the DES workflows each compute their own reads.  The plans
// are the reference both are checked against — tests compare the
// engines' store counters and the workflows' simulated times with the
// plans (vcluster::simulate_read_plan prices a plan on the PFS model), and
// assert the paper's seek-count arithmetic directly on the plan.
#pragma once

#include <vector>

#include "grid/decomposition.hpp"

namespace senkf::io {

using grid::Index;

/// One read request: a region of one member file.
struct ReadOp {
  Index member = 0;        ///< ensemble member (file) index
  grid::Rect region;       ///< what is read
  Index segments = 0;      ///< contiguous segments the region decays into
  double bytes = 0.0;      ///< payload volume (bytes_per_value given)

  friend bool operator==(const ReadOp&, const ReadOp&) = default;
};

/// The ordered reads of one reader (processor).
struct ReaderSchedule {
  Index reader = 0;
  std::vector<ReadOp> ops;
};

/// A complete plan: one schedule per participating reader, plus totals.
struct ReadPlan {
  std::vector<ReaderSchedule> readers;

  Index total_ops() const;
  Index total_segments() const;
  double total_bytes() const;
};

/// §4.1.1 — every computation processor reads its own expansion block of
/// every member: n_sdx·n_sdy readers, reader (i,j) reads expansion(i,j)
/// of members 0..N−1 in order.
ReadPlan block_read_plan(const grid::Decomposition& decomposition,
                         Index n_members, double bytes_per_value = 8.0);

/// §4.1.2/4.1.3 — n_cg concurrent groups of n_sdy bar readers; group g
/// reads members {f ≡ g (mod n_cg)}, reader (g,j) takes the expanded bar
/// of latitude tile j, one stage at a time (L = layers ≥ 1; stage s reads
/// the layer-s expanded rows).  layers = 1 and n_cg = 1 is plain bar
/// reading.
ReadPlan concurrent_bar_plan(const grid::Decomposition& decomposition,
                             Index n_members, Index n_cg, Index layers,
                             double bytes_per_value = 8.0);

/// §3.1 — the L-EnKF baseline: a single reader fetching every member
/// whole.
ReadPlan single_reader_plan(const grid::Decomposition& decomposition,
                            Index n_members, double bytes_per_value = 8.0);

}  // namespace senkf::io
