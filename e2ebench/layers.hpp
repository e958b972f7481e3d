// Per-layer measurements for the traced run.
//
// Each function times calls into one layer's public functions from the
// benchmark side; nothing here adds spans inside the library.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario.hpp"

namespace e2e {

/// Critical-path partition of one engine call's window [start, end].
struct PathSplit {
  double wall_s = 0.0;  ///< the bench's own clock: end - start
  double sum_s = 0.0;   ///< summed segment seconds (the partition)
  double compute_s = 0.0;
  double disk_s = 0.0;
  double comm_blocked_s = 0.0;
  double other_s = 0.0;
  double untracked_s = 0.0;
  std::uint64_t message_hops = 0;
  std::uint64_t missing_edges = 0;
  bool valid = false;

  /// |partition - wall| / wall: the layer-sum check's error.
  double sum_error() const;
};

/// Walks the trace recorded since the last clear_events() over the
/// window of one call.
PathSplit critical_path_of_call(std::int64_t start_ns, std::int64_t end_ns);

struct LocalizationReplay {
  double seconds = 0.0;       ///< summed obs::localized time
  std::uint64_t calls = 0;    ///< one per layer expansion
  std::uint64_t bytes = 0;    ///< computed from the h, R⁻¹h, HᵀR⁻¹H shapes
};

/// Clears the localization cache, then localizes the observations to
/// every layer expansion the engines analyse (so the cache ends warm).
LocalizationReplay replay_localization(const Scenario& scenario);

struct PatchReplay {
  std::vector<double> patch_s;  ///< one per (sub-domain, layer)
  double n_bar_mean = 0.0;      ///< expansion points
  double n_bar_max = 0.0;
  double m_bar_mean = 0.0;      ///< local observations used
  double allocs_per_patch = 0.0;
};

/// Runs local_analysis_scratch on every (sub-domain, layer) of the
/// scenario, once to warm the workspace and once measured.
PatchReplay replay_local_analysis(const Scenario& scenario);

struct CycleReplay {
  double model_s = 0.0;    ///< per cycle: truth, ensemble and control forecast
  double network_s = 0.0;  ///< per cycle: network, perturbations, innovation
  double senkf_s = 0.0;    ///< per cycle: store rebuild + S-EnKF
  std::vector<senkf::grid::Field> final_analysis;
};

/// Replays run_cycled_assimilation's loop through its public calls,
/// timing each; the final ensemble must equal the library loop's.
CycleReplay replay_cycles(const Scenario& scenario);

}  // namespace e2e
