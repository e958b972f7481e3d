// Continuous time-series telemetry (DESIGN.md §13).
//
// The registry (metrics.hpp) is a point-in-time view and the run report
// (report.hpp) one end-of-run cut.  This module adds the time axis: a
// TimeSeriesRecorder snapshots registry deltas on a cadence — every
// SENKF_SAMPLE_MS from a background thread, and/or explicitly at cycle
// boundaries — into bounded per-metric rings, so drift gauges show
// trends instead of one final point.  Counter samples record the delta
// since the previous sample, gauges record the level.  S-EnKF adds
// per-rank `ts.rankN.*` series, one point per stage read off its run
// ledger (DESIGN.md §11); the run report writes both kinds in its
// `timeseries` section.
//
// Memory is bounded by construction: each series keeps at most
// `capacity` newest points (evictions are counted, never silent), and
// the series population is bounded by the registry size.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace senkf::telemetry {

/// One sampled value on the process-monotonic now_ns() clock.
struct SeriesPoint {
  std::int64_t t_ns = 0;
  double value = 0.0;
};

/// Default ring capacity per series; at 16 bytes a point this bounds a
/// series at 8 KiB however long the run (and the sampler) live.
inline constexpr std::size_t kDefaultSeriesCapacity = 512;

/// Bounded mergeable series: at most `capacity` newest points, sorted by
/// time.  Points evicted by the bound are counted in `dropped` so a
/// truncated trend never reads as a complete one.
struct SeriesData {
  std::vector<SeriesPoint> points;  ///< sorted by t_ns, oldest first
  std::uint64_t dropped = 0;

  void append(std::int64_t t_ns, double value, std::size_t capacity);

  /// Merge-sorts the other series in, keeping the newest `capacity`
  /// points and both sides' eviction counts (the report writer unions
  /// the sampler's series with a run's per-rank series this way).
  void merge(const SeriesData& other, std::size_t capacity);
};

/// Process-wide sampler of registry deltas into per-metric rings.
class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(std::size_t capacity = kDefaultSeriesCapacity);

  /// Takes one sample at now_ns(): every gauge appends its level, every
  /// counter (and histogram count) with a nonzero delta since the
  /// previous sample appends that delta.  Thread-safe.
  void sample(const Registry& registry);

  /// Same with an explicit timestamp (tests, cycle-boundary sampling).
  void sample_at(std::int64_t t_ns, const Registry& registry);

  /// Copy of every series, keyed by metric name.
  std::map<std::string, SeriesData> snapshot() const;

  /// Points of one series (empty when the name was never sampled).
  std::vector<SeriesPoint> series(std::string_view name) const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t samples() const;

  /// Drops all series and the delta baseline (tests call it between runs).
  void clear();

  /// The recorder the background sampler and the run report share.
  static TimeSeriesRecorder& global();

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t samples_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> prev_counts_;
  std::map<std::string, SeriesData, std::less<>> series_;
};

/// Parsed form of the SENKF_SAMPLE_MS environment value (exposed for
/// tests): empty/"off"/"0" disables; any positive integer is the
/// sampling period in milliseconds.
struct SampleEnvConfig {
  bool enabled = false;
  std::int64_t interval_ms = 0;
};
SampleEnvConfig parse_sample_env(const char* value);

/// Starts the background sampling thread per SENKF_SAMPLE_MS if not
/// already running.  Lazy and idempotent — every engine arms it through
/// liveops::ensure_liveops_started() rather than pre-main, so
/// short-lived tools that never run a filter don't pay for a thread.
/// A start installs the shutdown() atexit handler (shutdown.hpp).
/// Returns true when a sampler is running on return.
bool ensure_sampler_started();

/// Stops the background sampler and joins its thread (idempotent).
void stop_sampler();

/// The period (ms) the background sampler last started with, or 0 if it
/// never started in this process.  Kept after stop_sampler(), because the
/// atexit report export runs once the sampler has stopped.
std::int64_t sampler_interval_ms();

}  // namespace senkf::telemetry
