// Cross-rank metric aggregation (DESIGN.md §11): per-rank snapshots of
// the metrics registry plus phase samples, merge operators for reducing
// them toward rank 0, and a byte-level wire codec.
//
// This layer sits below parcomm, so it knows nothing about transport:
// encode()/decode() produce plain byte vectors that the message plane
// (parcomm/metrics_channel.hpp) ships inside SharedPayload envelopes.
// Merge semantics: counters add, gauges keep min/max/sum/sumsq/count,
// histograms add bucketwise (bounds must match), rank samples
// concatenate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"

namespace senkf::telemetry {

/// Distribution of one gauge across the ranks that observed it.
struct GaugeStat {
  std::int64_t min = 0;
  std::int64_t max = 0;
  double sum = 0.0;
  double sumsq = 0.0;
  std::uint64_t count = 0;

  void observe(std::int64_t v);
  void merge(const GaugeStat& other);
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// A histogram's mergeable state; bucketwise-add requires equal bounds.
struct HistogramState {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;

  void observe(double v);
  /// Throws std::logic_error when the bounds differ.
  void merge(const HistogramState& other);
};

/// One rank's phase totals for a run, shipped to rank 0 and surfaced in
/// SenkfStats / the run report.  Times are seconds of wall clock inside
/// the respective phase on that rank.
struct RankSample {
  std::int32_t rank = -1;
  std::uint8_t is_io = 0;
  std::int32_t group = -1;  ///< concurrent group for I/O ranks, else -1
  double read_s = 0.0;      ///< bar-read time (successful reads only)
  double obtain_s = 0.0;    ///< full acquisition incl. injected delays/backoff
  double send_s = 0.0;      ///< block scatter / result send time
  double wait_s = 0.0;      ///< comp: main-thread stage wait
  double update_s = 0.0;    ///< comp: summed analysis task time
  std::uint64_t messages = 0;
  std::uint64_t retries = 0;
  std::uint64_t reissued = 0;
  std::uint64_t backlog_peak = 0;  ///< comp: max stages buffered ahead of use
};

/// A mergeable bundle of metrics: the unit the aggregation tree reduces.
class MetricsSnapshot {
 public:
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeStat> gauges;
  std::map<std::string, HistogramState> histograms;
  std::vector<RankSample> ranks;
  /// Per-rank trend series (DESIGN.md §13), e.g. "ts.rank3.obtain_s":
  /// bounded rings that ride the same reduction tree as the scalars so
  /// rank 0 sees every rank's per-stage trajectory, not just its total.
  std::map<std::string, SeriesData> series;

  void add_counter(std::string_view name, std::uint64_t v);
  void observe_gauge(std::string_view name, std::int64_t v);
  void observe_histogram(std::string_view name,
                         const std::vector<double>& bounds, double v);
  void append_series(std::string_view name, std::int64_t t_ns, double value);

  std::uint64_t counter(std::string_view name) const;

  /// Counters add, gauges stat-merge, histograms add bucketwise (bounds
  /// mismatch throws std::logic_error), rank samples concatenate, series
  /// merge-sort keeping the newest kDefaultSeriesCapacity points.
  void merge(const MetricsSnapshot& other);

  /// Sorts rank samples by rank id (the tree merge interleaves them).
  void sort_ranks();

  std::vector<std::byte> encode() const;
  static MetricsSnapshot decode(const std::byte* data, std::size_t size);
  static MetricsSnapshot decode(const std::vector<std::byte>& bytes) {
    return decode(bytes.data(), bytes.size());
  }

  /// Captures every metric currently in the registry: counters and
  /// histograms verbatim, each gauge as a single observation.
  static MetricsSnapshot capture(const Registry& registry);

  /// Same, minus a baseline: counter and histogram values are subtracted
  /// saturating at zero (a reset between captures never wraps); gauges
  /// keep their current value (deltas are meaningless for levels).
  static MetricsSnapshot capture_delta(const Registry& registry,
                                       const MetricsSnapshot& baseline);
};

/// Imbalance of one per-rank quantity: slowest vs mean.
struct SkewStats {
  double min_s = 0.0;
  double max_s = 0.0;
  double mean_s = 0.0;
  double ratio = 0.0;  ///< max / mean; 0 when no samples, 1 = balanced
  std::int32_t max_rank = -1;
  std::size_t samples = 0;
};

/// Skew of full bar-acquisition time (obtain_s) across I/O ranks.
SkewStats read_skew(const std::vector<RankSample>& ranks);

/// Skew of summed obtain_s across concurrent groups; max_rank holds the
/// slowest group id.
SkewStats group_read_skew(const std::vector<RankSample>& ranks);

/// Read balance of one pipeline stage.
struct StageSkew {
  SkewStats read;   ///< across I/O ranks (as read_skew)
  SkewStats group;  ///< across concurrent groups (as group_read_skew)
};

/// Per-stage read skew, indexed by stage.  Each I/O rank's per-stage
/// samples are rebuilt from its `ts.rank<r>.obtain_s` series (one point
/// per stage, in stage order); computation ranks and I/O ranks without
/// that series are ignored.
std::vector<StageSkew> stage_read_skew(const MetricsSnapshot& snapshot);

/// Peak helper-thread drain backlog across computation ranks.
std::uint64_t drain_backlog_peak(const std::vector<RankSample>& ranks);

}  // namespace senkf::telemetry
