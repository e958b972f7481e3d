// L-EnKF: the single-reader baseline (§3.1, refs [13][33]).
//
// One processor reads the background ensemble members one after another
// and scatters each rank's expansion patch serially; every rank then runs
// the same local analysis kernel and writes its layer targets straight
// into the output fields.  The reading strategy is the performance defect
// the paper starts from; the numerics are identical to every other
// implementation.
#pragma once

#include "enkf/serial_enkf.hpp"

namespace senkf::enkf {

/// Runs L-EnKF on n_sdx × n_sdy thread-backed ranks and returns the
/// analysis ensemble (verified bit-identical to serial_enkf in tests).
std::vector<grid::Field> lenkf(const EnsembleStore& store,
                               const obs::ObservationSet& observations,
                               const linalg::Matrix& perturbed,
                               const EnkfRunConfig& config);

}  // namespace senkf::enkf
