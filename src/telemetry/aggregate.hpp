// Cross-rank metric views (DESIGN.md §11): per-rank phase samples, the
// run-level MetricsSnapshot the report carries (counters, gauge
// distributions, histograms and rank samples), and the skew statistics
// computed over the samples.
//
// S-EnKF fills one snapshot per run from its run ledger after every rank
// thread has joined, so nothing here is shipped between ranks or merged;
// MetricsSnapshot::capture() gives the same shape to a registry dump.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace senkf::telemetry {

/// Distribution of one gauge's observations.
struct GaugeStat {
  std::int64_t min = 0;
  std::int64_t max = 0;
  double sum = 0.0;
  double sumsq = 0.0;
  std::uint64_t count = 0;

  void observe(std::int64_t v);
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// A histogram's bucket counts, with "le" bucket placement as in
/// metrics.hpp's Histogram.
struct HistogramState {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;

  void observe(double v);
};

/// One rank's phase totals for a run, surfaced in SenkfStats and the run
/// report.  Times are seconds of wall clock inside the respective phase
/// on that rank.
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

/// One run's metrics: what the report's "run.aggregate" and "run.ranks"
/// sections are written from.
class MetricsSnapshot {
 public:
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeStat> gauges;
  std::map<std::string, HistogramState> histograms;
  std::vector<RankSample> ranks;

  /// Throws std::logic_error when `name` was observed with other bounds.
  void observe_histogram(std::string_view name,
                         const std::vector<double>& bounds, double v);

  std::uint64_t counter(std::string_view name) const;

  /// Captures every metric currently in the registry: counters and
  /// histograms verbatim, each gauge as a single observation.
  static MetricsSnapshot capture(const Registry& registry);
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

/// Per-stage read skew: `stages[l]` holds stage l's samples, whose
/// obtain_s is that stage's acquisition time; computation-rank samples
/// are ignored, as in read_skew.
std::vector<StageSkew> stage_read_skew(
    const std::vector<std::vector<RankSample>>& stages);

/// Peak helper-thread drain backlog across computation ranks.
std::uint64_t drain_backlog_peak(const std::vector<RankSample>& ranks);

}  // namespace senkf::telemetry
