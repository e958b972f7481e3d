// Process-wide cache of localized observation products (DESIGN.md §15).
//
// Localizing an ObservationSet to an expansion rectangle — scanning the
// network for the supported components and building H̄'s sparse rows
// and R⁻¹ — depends only on (observation set, rect).  Sub-domains are
// re-analysed with the same rects every cycle, and under the service
// plane the same network is shared across jobs, so the cache turns the
// per-patch localization cost into a shared-lock lookup after the first
// cycle.
//
// Keys use ObservationSet::epoch(), a process-unique id assigned at
// construction: a *new* observation set (fresh values, new network) gets
// a new epoch, so stale products are never returned, and entries for
// superseded epochs are evicted when a newer epoch is first inserted.
//
// Metrics: analysis.localization.{hits,misses} counters and the
// analysis.localization.entries and analysis.localization.bytes gauges
// (live entries, and the sum of their LocalObservations::memory_bytes()).
#pragma once

#include <memory>

#include "obs/local_obs.hpp"

namespace senkf::obs {

/// The localization of `observations` to `rect`, served from the global
/// cache (built on first use).  The returned pointer stays valid after
/// eviction — holders keep their copy alive.
std::shared_ptr<const LocalObservations> localized(
    const ObservationSet& observations, grid::Rect rect);

/// Drops every cached entry (tests; between unrelated experiments).
void clear_localization_cache();

/// Live entry count (what the entries gauge reports).
std::size_t localization_cache_size();

}  // namespace senkf::obs
