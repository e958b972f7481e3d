// The local analysis kernel — paper equation (6).
//
// Given the background ensemble restricted to an expansion D̄ (one Patch
// per member), the observations localized to D̄ and the member-wise
// perturbed observations Yˢ, the kernel computes
//
//   Xᵃ = P · [ X̄ᵇ + (B̂⁻¹ + Hᵀ R⁻¹ H)⁻¹ · Hᵀ R⁻¹ · (Yˢ − H X̄ᵇ) ]
//
// with B̂⁻¹ estimated by the localized modified Cholesky decomposition
// (P-EnKF's estimator, refs [23][24]) and the solve done in observation
// space, as B̂H̄ᵀ(R + H̄B̂H̄ᵀ)⁻¹ (DESIGN.md §15).
// P projects the expansion onto the target rectangle (never materialized,
// exactly as §2.2 notes).
//
// Every implementation in this library — serial reference, L-EnKF,
// P-EnKF, S-EnKF — calls this one kernel with identical inputs, which is
// why their analyses agree bit-for-bit (the correctness gate for the
// performance work).
//
// Execution model (DESIGN.md §15): all temporaries come from a
// LocalAnalysisWorkspace, the observation localization comes from the
// process-wide cache (obs/local_obs_cache.hpp), and the result is one
// arena-backed view per member (local_analysis_scratch, zero allocation
// in steady state).  Every engine inserts those views into its output
// fields at the layer target.
#pragma once

#include <span>

#include "enkf/analysis_workspace.hpp"
#include "grid/decomposition.hpp"
#include "linalg/modified_cholesky.hpp"
#include "obs/local_obs.hpp"
#include "obs/perturbed.hpp"

namespace senkf::enkf {

using grid::Index;

/// Which analysis scheme the kernel runs on each expansion.
enum class AnalysisKind {
  /// Stochastic EnKF with the modified-Cholesky B̂⁻¹ estimator and
  /// perturbed observations — P-EnKF's scheme (refs [23][24]); the
  /// library default and the paper's eq. (6).
  kStochasticModifiedCholesky,
  /// Deterministic ensemble-transform analysis in ensemble space (the
  /// formulation §1 attributes to the L-EnKF family; LETKF-style).  The
  /// perturbed-observation matrix is ignored — the transform updates the
  /// mean and rotates the anomalies by the symmetric square root of the
  /// ensemble-space posterior covariance.
  kDeterministicTransform,
};

struct AnalysisOptions {
  AnalysisKind kind = AnalysisKind::kStochasticModifiedCholesky;
  grid::Halo halo;              ///< localization half-widths (ξ, η)
  double ridge = 1e-6;          ///< modified-Cholesky regression ridge
  /// Multiplicative covariance inflation λ ≥ 1: background anomalies are
  /// scaled by λ before the analysis (X ← x̄ + λ(X − x̄)).  Counteracts
  /// the spread collapse of small ensembles in cycled assimilation;
  /// λ = 1 disables it.
  double inflation = 1.0;
};

/// Zero-allocation result: one view per member over storage owned by the
/// workspace that produced it.  Valid until that workspace is next used
/// (its reset() rewinds the arena the values live in).
struct AnalysisView {
  std::span<const grid::PatchView> members;
  Index local_observations = 0;  ///< m̄: observations used
};

/// Runs equation (6) with every temporary drawn from `workspace`
/// (reset() is called on entry — results of the previous call die).
/// An expansion holding no observations returns its background
/// unchanged (m̄ = 0: there is nothing to assimilate).
/// `background` members may sit on any rect *containing* `expansion`
/// (the kernel gathers the expansion window in place, so callers never
/// extract an intermediate slab); `target` must lie inside the
/// expansion.  `observations` / `perturbed` are the *global* observation
/// set and Yˢ matrix — localization happens here, served from the
/// process-wide cache.
AnalysisView local_analysis_scratch(std::span<const grid::PatchView> background,
                                    grid::Rect expansion, grid::Rect target,
                                    const obs::ObservationSet& observations,
                                    const linalg::Matrix& perturbed,
                                    const AnalysisOptions& options,
                                    LocalAnalysisWorkspace& workspace);

/// The localized predecessor oracle used for B̂⁻¹: predecessors of a point
/// are the earlier points (row-major order within the expansion) whose
/// offsets are within (ξ, η) — the paper's radius-of-influence
/// neighbourhood transported to the Bickel–Levina ordering.  Each set is
/// written, in increasing index order, into the scratch arena the
/// estimator hands it (released by the estimator's per-row rewind).
class ExpansionPredecessorOracle final : public linalg::PredecessorOracle {
 public:
  ExpansionPredecessorOracle(grid::Rect expansion, grid::Halo halo)
      : expansion_(expansion), halo_(halo) {}

  std::span<const linalg::Index> predecessors(
      linalg::Index i, support::Arena& scratch) const override;

 private:
  grid::Rect expansion_;
  grid::Halo halo_;
};

}  // namespace senkf::enkf
