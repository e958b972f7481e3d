// Virtual cluster description: the simulated Tianhe-2 stand-in.
//
// MachineConfig bundles the PFS and network models with the one
// computation constant the paper's cost model uses (`c`, the local
// analysis cost per grid point).  SimWorkload mirrors the paper's
// evaluation workload: a 3600×1800 0.1° mesh, 120 ensemble members,
// 8-byte values, and the localization halo.
//
// Calibration (see EXPERIMENTS.md): the defaults are chosen so the
// simulated P-EnKF stops strong-scaling near 8,000 cores and trails
// S-EnKF by ≈3× at 12,000 — the paper's headline observations — while
// keeping every *structural* property (seek counts, stream caps, file
// placement, alpha-beta messaging) exactly as analysed in §4.
#pragma once

#include "net/net.hpp"
#include "pfs/pfs.hpp"

namespace senkf::vcluster {

struct MachineConfig {
  pfs::PfsConfig pfs{
      /*ost_count=*/6,
      pfs::OstConfig{/*segment_overhead_s=*/220e-9,
                     /*stream_bandwidth=*/400e6,
                     /*max_streams=*/10},
      /*stripe_count=*/1,
  };
  net::NetConfig net{/*alpha=*/2e-6, /*beta=*/1e-10};
  /// "c" in Table 1: local-analysis cost per grid point (seconds).
  double update_cost_per_point_s = 1.0e-3;
};

struct SimWorkload {
  std::uint64_t nx = 3600;       ///< longitude points
  std::uint64_t ny = 1800;       ///< latitude points
  std::uint64_t members = 120;   ///< N: background ensemble members (files)
  std::uint64_t halo_xi = 4;     ///< ξ: longitude halo (grid points)
  std::uint64_t halo_eta = 2;    ///< η: latitude halo (grid points)
  double bytes_per_point = 8.0;  ///< h: stored bytes per grid point & level
  /// Vertical levels per column (the paper's data has 30).  Levels scale
  /// every data volume — a column's levels are stored contiguously, so
  /// segment counts are unaffected.  The calibrated default machine uses
  /// 1 (h folds the per-column payload); raise it for what-if studies.
  std::uint64_t levels = 1;

  /// Effective bytes a grid point contributes (all levels).
  double point_bytes() const {
    return bytes_per_point * static_cast<double>(levels);
  }

  /// Bytes of one background-ensemble-member file.
  double member_bytes() const {
    return static_cast<double>(nx) * static_cast<double>(ny) * point_bytes();
  }

  /// Bytes of one full-width latitude bar (file / n_sdy).
  double bar_bytes(std::uint64_t n_sdy) const {
    return member_bytes() / static_cast<double>(n_sdy);
  }

  /// Rows a computation processor owns per stage.
  std::uint64_t rows_per_stage(std::uint64_t n_sdy,
                               std::uint64_t layers) const {
    return ny / n_sdy / layers;
  }
};

}  // namespace senkf::vcluster
