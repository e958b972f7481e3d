// Observation-space verification of assimilation systems.
//
// Skill-vs-truth (diagnostics.hpp) needs the truth, which operational
// systems never have.  These verify against the *observations*:
//
//  * innovation χ² — E[dᵀ(HBHᵀ+R)⁻¹d] should equal m for a statistically
//    consistent filter; values ≫ 1 per degree of freedom flag
//    overconfidence (spread collapse), ≪ 1 overdispersion;
//  * rank histogram — where each observed value ranks within the sorted
//    ensemble predictions; flat for a reliable ensemble, U-shaped for an
//    underdispersive one.
#pragma once

#include <vector>

#include "enkf/ensemble_store.hpp"
#include "obs/observation.hpp"

namespace senkf::enkf {

struct InnovationStats {
  double chi2 = 0.0;            ///< dᵀ(HBHᵀ+R)⁻¹d
  std::size_t observations = 0; ///< m: degrees of freedom
  double mean_innovation = 0.0; ///< bias indicator

  /// χ² per degree of freedom; ≈ 1 for a consistent filter.
  double normalized() const {
    return observations == 0 ? 0.0
                             : chi2 / static_cast<double>(observations);
  }
};

/// Innovation consistency of an ensemble against an observation set.
/// Works in ensemble space: HBHᵀ = ŶŶᵀ/(N−1) has rank N−1 and R is
/// diagonal, so χ² comes from one N×N Cholesky solve of
/// (N−1)I + ŶᵀR⁻¹Ŷ (Sherman–Morrison–Woodbury) — O(m·N² + N³) time and
/// O(m·N) memory, with nothing m×m formed.  Cheap enough to run on every
/// assimilation cycle at full network size.
InnovationStats innovation_statistics(
    const std::vector<grid::Field>& ensemble,
    const obs::ObservationSet& observations);

/// Rank histogram (Talagrand diagram): counts[r] is how many observations
/// fell between the r-th and (r+1)-th sorted ensemble prediction
/// (N members ⇒ N+1 bins).  Observation error is added as perturbations
/// to the predictions so the comparison is like-with-like.
std::vector<std::size_t> rank_histogram(
    const std::vector<grid::Field>& ensemble,
    const obs::ObservationSet& observations, Rng& rng);

/// Discrepancy of a histogram from flatness: sum over bins of
/// (observed − expected)²/expected (a χ² statistic with bins−1 dof).
double histogram_flatness_chi2(const std::vector<std::size_t>& counts);

}  // namespace senkf::enkf
