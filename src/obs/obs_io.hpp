// Observation file I/O.
//
// §4.1 observes that H "can be constructed from some limited
// observational data which only need to be read from disk" — i.e. the
// persistent form of an observation set is small: per component, its
// support points/weights, error standard deviation and measured value.
// This module persists exactly that, so a file-based workflow can carry
// observations alongside the FileEnsembleStore members.
//
// Format (`*.senkfobs`): header (magic, version, nx, ny, component
// count), then per component: error_std, value, support count and the
// (x, y, weight) triples.
#pragma once

#include <filesystem>

#include "obs/observation.hpp"

namespace senkf::obs {

/// Persists `observations` to `path` (parent directories must exist).
void write_observations(const ObservationSet& observations,
                        const std::filesystem::path& path);

/// Loads an observation set written by write_observations; validates the
/// header against `grid_def`, every count against the bytes left in the
/// file (before reserving for it) and, through ObservationSet, every
/// support point against the grid and every number for finiteness.
/// Any malformed file throws a senkf::Error.
ObservationSet read_observations(const grid::LatLonGrid& grid_def,
                                 const std::filesystem::path& path);

}  // namespace senkf::obs
