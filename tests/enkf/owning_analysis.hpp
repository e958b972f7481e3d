// Test-side owning form of the local analysis: local_analysis_scratch on
// this thread's pooled workspace, with the target views copied out into
// Patches that outlive the next analysis call.
#pragma once

#include <vector>

#include "enkf/local_analysis.hpp"

namespace senkf::enkf {

/// The analysis restricted to the target rect, one patch per member
/// (same order as the inputs).
struct OwningAnalysis {
  std::vector<grid::Patch> members;
  Index local_observations = 0;  ///< m̄: observations used
};

inline OwningAnalysis owning_copy(const AnalysisView& view) {
  OwningAnalysis out;
  out.local_observations = view.local_observations;
  for (const grid::PatchView& member : view.members) {
    out.members.push_back(member.materialize());
  }
  return out;
}

/// Runs the analysis on `background`, whose first member's rect is the
/// expansion.
inline OwningAnalysis owning_analysis(
    const std::vector<grid::Patch>& background, grid::Rect target,
    const obs::ObservationSet& observations, const linalg::Matrix& perturbed,
    const AnalysisOptions& options) {
  const std::vector<grid::PatchView> views(background.begin(),
                                           background.end());
  return owning_copy(local_analysis_scratch(
      views, views.front().rect(), target, observations, perturbed, options,
      LocalAnalysisWorkspace::for_this_thread()));
}

}  // namespace senkf::enkf
