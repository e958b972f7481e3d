// Serial reference EnKF.
//
// Runs the domain-localized analysis (eq. (6)) over every sub-domain —
// optionally split into L latitude layers — in a single thread with
// direct data access.  This is the *gold* result every parallel
// implementation must reproduce exactly: same decomposition, same layer
// split, same kernel, same perturbed observations ⇒ bit-identical
// analyses.
//
// Each member is loaded from the store once.  Every (sub-domain, layer)
// patch then runs through local_analysis_scratch on full-field views of
// those backgrounds — the kernel gathers the expansion window in place,
// as it does for P-EnKF's sub-domain bars — and the returned target
// views are inserted into the analysis fields.
//
// With n_sdx = n_sdy = 1 and a halo covering the whole grid the local
// analysis degenerates to the global formulation (eq. (5)), which the
// tests use as an independent cross-check.
#pragma once

#include "enkf/ensemble_store.hpp"
#include "enkf/local_analysis.hpp"

namespace senkf::enkf {

struct EnkfRunConfig {
  Index n_sdx = 1;
  Index n_sdy = 1;
  Index layers = 1;  ///< L: latitude layers per sub-domain
  /// Per-rank analysis pool width for the parallel implementations that
  /// honour it (P-EnKF's update phase): independent layer analyses run
  /// concurrently, each writing only its own layer target of the output
  /// fields, so any width is bit-identical.  0 = hardware concurrency
  /// capped at 8.  The serial reference ignores this knob and always runs
  /// single-threaded.
  Index analysis_threads = 0;
  AnalysisOptions analysis;
};

/// Full-field analysis ensemble, one Field per member.
std::vector<grid::Field> serial_enkf(const EnsembleStore& store,
                                     const obs::ObservationSet& observations,
                                     const linalg::Matrix& perturbed,
                                     const EnkfRunConfig& config);

}  // namespace senkf::enkf
