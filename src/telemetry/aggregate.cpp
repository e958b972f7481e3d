#include "telemetry/aggregate.hpp"

#include <algorithm>
#include <stdexcept>

namespace senkf::telemetry {

void GaugeStat::observe(std::int64_t v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  const double d = static_cast<double>(v);
  sum += d;
  sumsq += d * d;
  count += 1;
}

void HistogramState::observe(double v) {
  if (buckets.size() != bounds.size() + 1) buckets.resize(bounds.size() + 1, 0);
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  buckets[static_cast<std::size_t>(it - bounds.begin())] += 1;
  count += 1;
  sum += v;
}

void MetricsSnapshot::observe_histogram(std::string_view name,
                                        const std::vector<double>& bounds,
                                        double v) {
  HistogramState& h = histograms[std::string(name)];
  if (h.bounds.empty()) h.bounds = bounds;
  if (h.bounds != bounds) {
    throw std::logic_error("MetricsSnapshot: histogram '" + std::string(name) +
                           "' observed with different bounds");
  }
  h.observe(v);
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

MetricsSnapshot MetricsSnapshot::capture(const Registry& registry) {
  MetricsSnapshot out;
  for (const MetricRow& row : registry.rows()) {
    switch (row.kind) {
      case MetricRow::Kind::kCounter:
        out.counters[row.name] = row.counter;
        break;
      case MetricRow::Kind::kGauge:
        out.gauges[row.name].observe(row.gauge);
        break;
      case MetricRow::Kind::kHistogram: {
        HistogramState h;
        h.bounds = row.bounds;
        h.buckets = row.buckets;
        h.count = row.count;
        h.sum = row.sum;
        out.histograms[row.name] = std::move(h);
        break;
      }
    }
  }
  return out;
}

namespace {

template <typename Key, typename Value>
SkewStats skew_of(const std::map<Key, Value>& totals) {
  SkewStats out;
  if (totals.empty()) return out;
  double sum = 0.0;
  bool first = true;
  for (const auto& [key, v] : totals) {
    sum += v;
    if (first || v > out.max_s) {
      out.max_s = v;
      out.max_rank = static_cast<std::int32_t>(key);
    }
    if (first || v < out.min_s) out.min_s = v;
    first = false;
  }
  out.samples = totals.size();
  out.mean_s = sum / static_cast<double>(totals.size());
  out.ratio = out.mean_s > 0.0 ? out.max_s / out.mean_s : 0.0;
  return out;
}

}  // namespace

SkewStats read_skew(const std::vector<RankSample>& ranks) {
  std::map<std::int32_t, double> per_rank;
  for (const RankSample& r : ranks) {
    if (r.is_io) per_rank[r.rank] += r.obtain_s;
  }
  return skew_of(per_rank);
}

SkewStats group_read_skew(const std::vector<RankSample>& ranks) {
  std::map<std::int32_t, double> per_group;
  for (const RankSample& r : ranks) {
    if (r.is_io && r.group >= 0) per_group[r.group] += r.obtain_s;
  }
  return skew_of(per_group);
}

std::vector<StageSkew> stage_read_skew(
    const std::vector<std::vector<RankSample>>& stages) {
  std::vector<StageSkew> out;
  out.reserve(stages.size());
  for (const std::vector<RankSample>& samples : stages) {
    out.push_back({read_skew(samples), group_read_skew(samples)});
  }
  return out;
}

std::uint64_t drain_backlog_peak(const std::vector<RankSample>& ranks) {
  std::uint64_t peak = 0;
  for (const RankSample& r : ranks) {
    if (!r.is_io) peak = std::max(peak, r.backlog_peak);
  }
  return peak;
}

}  // namespace senkf::telemetry
