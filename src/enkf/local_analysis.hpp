// The local analysis kernel — paper equation (6).
//
// Given the background ensemble restricted to an expansion D̄ (one Patch
// per member), the observations localized to D̄ and the member-wise
// perturbed observations Yˢ, the kernel computes
//
//   Xᵃ = P · [ X̄ᵇ + (B̂⁻¹ + Hᵀ R⁻¹ H)⁻¹ · Hᵀ R⁻¹ · (Yˢ − H X̄ᵇ) ]
//
// with B̂⁻¹ estimated by the localized modified Cholesky decomposition
// (P-EnKF's estimator, refs [23][24]) and the SPD solve done by Cholesky
// on the band the row-major expansion ordering gives the system
// (DESIGN.md §15).
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
// process-wide cache (obs/local_obs_cache.hpp), and results are emitted
// three ways:
//   * local_analysis_scratch — arena-backed views, zero allocation in
//     steady state; what the hot paths consume.
//   * local_analysis_packed — projects straight into a Packer's payload
//     bytes, for callers whose next step is the wire.
//   * local_analysis (legacy overloads) — owning AnalysisResult, for the
//     serial reference and existing tests.
// All three run the same engine, so their values agree bit-for-bit with
// each other.
#pragma once

#include <span>
#include <vector>

#include "enkf/analysis_workspace.hpp"
#include "grid/decomposition.hpp"
#include "linalg/modified_cholesky.hpp"
#include "obs/local_obs.hpp"
#include "obs/perturbed.hpp"

namespace senkf::parcomm {
class Packer;
}  // namespace senkf::parcomm

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
  bool skip_without_obs = true; ///< leave the background untouched when the
                                ///< expansion holds no observations
  /// Multiplicative covariance inflation λ ≥ 1: background anomalies are
  /// scaled by λ before the analysis (X ← x̄ + λ(X − x̄)).  Counteracts
  /// the spread collapse of small ensembles in cycled assimilation;
  /// λ = 1 disables it.
  double inflation = 1.0;
};

/// Result: the analysis restricted to the target rect, one patch per
/// member (same order as the inputs).
struct AnalysisResult {
  std::vector<grid::Patch> members;
  Index local_observations = 0;  ///< m̄: observations used
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

/// Same analysis, emitted straight onto the wire: for each member k the
/// sequence [u64 member_ids[k]][patch block over `target`] is appended
/// to `out`, the projection writing into the payload bytes in place.
/// Byte-identical to pack_patch of the legacy result's patches.
void local_analysis_packed(std::span<const grid::PatchView> background,
                           grid::Rect expansion, grid::Rect target,
                           const obs::ObservationSet& observations,
                           const linalg::Matrix& perturbed,
                           const AnalysisOptions& options,
                           std::span<const Index> member_ids,
                           LocalAnalysisWorkspace& workspace,
                           parcomm::Packer& out);

/// Legacy owning entry point (members must all sit exactly on the
/// expansion rect, as before).  Runs on this thread's pooled workspace.
AnalysisResult local_analysis(std::span<const grid::PatchView> background,
                              grid::Rect target,
                              const obs::ObservationSet& observations,
                              const linalg::Matrix& perturbed,
                              const AnalysisOptions& options);

/// Adapter for callers holding owning Patches; the kernel itself only
/// reads, so it runs on views built in the workspace arena (no per-call
/// heap vector).
AnalysisResult local_analysis(const std::vector<grid::Patch>& background,
                              grid::Rect target,
                              const obs::ObservationSet& observations,
                              const linalg::Matrix& perturbed,
                              const AnalysisOptions& options);

/// The localized predecessor oracle used for B̂⁻¹: predecessors of a point
/// are the earlier points (row-major order within the expansion) whose
/// offsets are within (ξ, η) — the paper's radius-of-influence
/// neighbourhood transported to the Bickel–Levina ordering.
linalg::PredecessorFn expansion_predecessors(grid::Rect expansion,
                                             grid::Halo halo);

/// Allocation-free variant: writes each predecessor set into the scratch
/// arena the estimator hands it (released by the estimator's per-row
/// rewind).  Same sets in the same order as expansion_predecessors.
class ExpansionPredecessorOracle final : public linalg::PredecessorOracle {
 public:
  ExpansionPredecessorOracle(grid::Rect expansion, grid::Halo halo)
      : expansion_(expansion), halo_(halo) {}

  std::span<const linalg::Index> predecessors(
      linalg::Index i, support::Arena& scratch) override;

 private:
  grid::Rect expansion_;
  grid::Halo halo_;
};

}  // namespace senkf::enkf
