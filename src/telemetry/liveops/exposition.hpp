// Prometheus text exposition of the metrics registry (DESIGN.md §16).
//
// Renders Registry rows in the text-based exposition format (version
// 0.0.4): `# TYPE` headers, cumulative `_bucket{le="..."}` counts per
// histogram (the registry stores per-bucket counts; Prometheus wants
// running sums), an explicit `+Inf` bucket equal to `_count`, and
// `_sum`/`_count` series.  Gauge values and `_sum`s are written by
// write_number(), so they read back as the exact doubles the registry
// holds.  Metric names are sanitized to the
// `[a-zA-Z_:][a-zA-Z0-9_:]*` charset (dots become underscores).
//
// Every histogram row comes from Histogram::cut(), so a scrape taken
// mid-run is tear-free per metric: bucket counts sum to `_count`.
#pragma once

#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace senkf::telemetry::liveops {

/// Maps an internal metric name ("senkf.read.retries") to a legal
/// Prometheus name ("senkf_read_retries").
std::string sanitize_metric_name(std::string_view name);

/// The /metrics body for an explicit row set (tests).
std::string render_prometheus(const std::vector<MetricRow>& rows);

/// The /metrics body for the global registry.
std::string render_prometheus();

}  // namespace senkf::telemetry::liveops
