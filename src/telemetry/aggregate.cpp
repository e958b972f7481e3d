#include "telemetry/aggregate.hpp"

#include <algorithm>
#include <cstring>
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

void GaugeStat::merge(const GaugeStat& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  sumsq += other.sumsq;
  count += other.count;
}

void HistogramState::observe(double v) {
  if (buckets.size() != bounds.size() + 1) buckets.resize(bounds.size() + 1, 0);
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  buckets[static_cast<std::size_t>(it - bounds.begin())] += 1;
  count += 1;
  sum += v;
}

void HistogramState::merge(const HistogramState& other) {
  if (other.count == 0 && other.bounds.empty()) return;
  if (count == 0 && bounds.empty()) {
    *this = other;
    return;
  }
  if (bounds != other.bounds) {
    throw std::logic_error(
        "HistogramState::merge: bucket bounds differ between ranks");
  }
  if (buckets.size() != bounds.size() + 1) buckets.resize(bounds.size() + 1, 0);
  for (std::size_t i = 0; i < other.buckets.size() && i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

void MetricsSnapshot::add_counter(std::string_view name, std::uint64_t v) {
  counters[std::string(name)] += v;
}

void MetricsSnapshot::observe_gauge(std::string_view name, std::int64_t v) {
  gauges[std::string(name)].observe(v);
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

void MetricsSnapshot::append_series(std::string_view name, std::int64_t t_ns,
                                    double value) {
  series[std::string(name)].append(t_ns, value, kDefaultSeriesCapacity);
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, stat] : other.gauges) gauges[name].merge(stat);
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].merge(hist);
  }
  ranks.insert(ranks.end(), other.ranks.begin(), other.ranks.end());
  for (const auto& [name, s] : other.series) {
    series[name].merge(s, kDefaultSeriesCapacity);
  }
}

void MetricsSnapshot::sort_ranks() {
  std::sort(ranks.begin(), ranks.end(),
            [](const RankSample& a, const RankSample& b) {
              return a.rank < b.rank;
            });
}

namespace {

// --- byte codec ---------------------------------------------------------
// Little-endian fixed-width fields via memcpy; strings are u64 length +
// bytes.  Decode validates lengths and throws std::runtime_error on a
// truncated or oversized payload.

void put_bytes(std::vector<std::byte>& out, const void* data,
               std::size_t size) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + size);
}

template <typename T>
void put(std::vector<std::byte>& out, T v) {
  put_bytes(out, &v, sizeof(T));
}

void put_string(std::vector<std::byte>& out, const std::string& s) {
  put<std::uint64_t>(out, s.size());
  put_bytes(out, s.data(), s.size());
}

struct Cursor {
  const std::byte* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > size) {
      throw std::runtime_error("MetricsSnapshot::decode: truncated payload");
    }
  }

  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    need(static_cast<std::size_t>(n));
    std::string s(reinterpret_cast<const char*>(data + pos),
                  static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return s;
  }

  /// Guards count-prefixed loops against hostile counts: each element
  /// occupies at least `min_element_bytes` of the remaining payload.
  std::uint64_t get_count(std::size_t min_element_bytes) {
    const auto n = get<std::uint64_t>();
    if (min_element_bytes > 0 && n > (size - pos) / min_element_bytes) {
      throw std::runtime_error("MetricsSnapshot::decode: count exceeds payload");
    }
    return n;
  }
};

// v2 appends the time-series section (DESIGN.md §13).  Both ends of the
// in-process transport always run the same build, so there is no
// cross-version negotiation — decode rejects anything else loudly.
constexpr std::uint32_t kWireVersion = 2;

}  // namespace

std::vector<std::byte> MetricsSnapshot::encode() const {
  std::vector<std::byte> out;
  put<std::uint32_t>(out, kWireVersion);

  put<std::uint64_t>(out, counters.size());
  for (const auto& [name, v] : counters) {
    put_string(out, name);
    put<std::uint64_t>(out, v);
  }

  put<std::uint64_t>(out, gauges.size());
  for (const auto& [name, g] : gauges) {
    put_string(out, name);
    put<std::int64_t>(out, g.min);
    put<std::int64_t>(out, g.max);
    put<double>(out, g.sum);
    put<double>(out, g.sumsq);
    put<std::uint64_t>(out, g.count);
  }

  put<std::uint64_t>(out, histograms.size());
  for (const auto& [name, h] : histograms) {
    put_string(out, name);
    put<std::uint64_t>(out, h.bounds.size());
    for (const double b : h.bounds) put<double>(out, b);
    put<std::uint64_t>(out, h.buckets.size());
    for (const std::uint64_t b : h.buckets) put<std::uint64_t>(out, b);
    put<std::uint64_t>(out, h.count);
    put<double>(out, h.sum);
  }

  put<std::uint64_t>(out, ranks.size());
  for (const RankSample& r : ranks) {
    put<std::int32_t>(out, r.rank);
    put<std::uint8_t>(out, r.is_io);
    put<std::int32_t>(out, r.group);
    put<double>(out, r.read_s);
    put<double>(out, r.obtain_s);
    put<double>(out, r.send_s);
    put<double>(out, r.wait_s);
    put<double>(out, r.update_s);
    put<std::uint64_t>(out, r.messages);
    put<std::uint64_t>(out, r.retries);
    put<std::uint64_t>(out, r.reissued);
    put<std::uint64_t>(out, r.backlog_peak);
  }

  put<std::uint64_t>(out, series.size());
  for (const auto& [name, s] : series) {
    put_string(out, name);
    put<std::uint64_t>(out, s.dropped);
    put<std::uint64_t>(out, s.points.size());
    for (const SeriesPoint& p : s.points) {
      put<std::int64_t>(out, p.t_ns);
      put<double>(out, p.value);
    }
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::decode(const std::byte* data,
                                        std::size_t size) {
  Cursor in{data, size};
  const auto version = in.get<std::uint32_t>();
  if (version != kWireVersion) {
    throw std::runtime_error("MetricsSnapshot::decode: unknown wire version " +
                             std::to_string(version));
  }

  MetricsSnapshot out;
  const auto n_counters = in.get_count(2 * sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    std::string name = in.get_string();
    out.counters[std::move(name)] = in.get<std::uint64_t>();
  }

  const auto n_gauges = in.get_count(sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    std::string name = in.get_string();
    GaugeStat g;
    g.min = in.get<std::int64_t>();
    g.max = in.get<std::int64_t>();
    g.sum = in.get<double>();
    g.sumsq = in.get<double>();
    g.count = in.get<std::uint64_t>();
    out.gauges[std::move(name)] = g;
  }

  const auto n_histograms = in.get_count(sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n_histograms; ++i) {
    std::string name = in.get_string();
    HistogramState h;
    const auto n_bounds = in.get_count(sizeof(double));
    h.bounds.reserve(static_cast<std::size_t>(n_bounds));
    for (std::uint64_t b = 0; b < n_bounds; ++b) {
      h.bounds.push_back(in.get<double>());
    }
    const auto n_buckets = in.get_count(sizeof(std::uint64_t));
    h.buckets.reserve(static_cast<std::size_t>(n_buckets));
    for (std::uint64_t b = 0; b < n_buckets; ++b) {
      h.buckets.push_back(in.get<std::uint64_t>());
    }
    h.count = in.get<std::uint64_t>();
    h.sum = in.get<double>();
    out.histograms[std::move(name)] = std::move(h);
  }

  const auto n_ranks = in.get_count(sizeof(std::int32_t) + 1);
  out.ranks.reserve(static_cast<std::size_t>(n_ranks));
  for (std::uint64_t i = 0; i < n_ranks; ++i) {
    RankSample r;
    r.rank = in.get<std::int32_t>();
    r.is_io = in.get<std::uint8_t>();
    r.group = in.get<std::int32_t>();
    r.read_s = in.get<double>();
    r.obtain_s = in.get<double>();
    r.send_s = in.get<double>();
    r.wait_s = in.get<double>();
    r.update_s = in.get<double>();
    r.messages = in.get<std::uint64_t>();
    r.retries = in.get<std::uint64_t>();
    r.reissued = in.get<std::uint64_t>();
    r.backlog_peak = in.get<std::uint64_t>();
    out.ranks.push_back(r);
  }

  const auto n_series = in.get_count(3 * sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n_series; ++i) {
    std::string name = in.get_string();
    SeriesData s;
    s.dropped = in.get<std::uint64_t>();
    const auto n_points = in.get_count(sizeof(std::int64_t) + sizeof(double));
    s.points.reserve(static_cast<std::size_t>(n_points));
    for (std::uint64_t p = 0; p < n_points; ++p) {
      SeriesPoint point;
      point.t_ns = in.get<std::int64_t>();
      point.value = in.get<double>();
      s.points.push_back(point);
    }
    out.series[std::move(name)] = std::move(s);
  }
  return out;
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

MetricsSnapshot MetricsSnapshot::capture_delta(const Registry& registry,
                                               const MetricsSnapshot& baseline) {
  MetricsSnapshot out = capture(registry);
  for (auto& [name, v] : out.counters) {
    const auto it = baseline.counters.find(name);
    if (it != baseline.counters.end()) {
      v = v >= it->second ? v - it->second : 0;  // reset between captures
    }
  }
  for (auto& [name, h] : out.histograms) {
    const auto it = baseline.histograms.find(name);
    if (it == baseline.histograms.end() || it->second.bounds != h.bounds) {
      continue;
    }
    const HistogramState& base = it->second;
    for (std::size_t i = 0; i < h.buckets.size() && i < base.buckets.size();
         ++i) {
      h.buckets[i] = h.buckets[i] >= base.buckets[i]
                         ? h.buckets[i] - base.buckets[i]
                         : 0;
    }
    h.count = h.count >= base.count ? h.count - base.count : 0;
    h.sum = h.sum >= base.sum ? h.sum - base.sum : 0.0;
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

std::vector<StageSkew> stage_read_skew(const MetricsSnapshot& snapshot) {
  std::vector<std::vector<RankSample>> stages;
  for (const RankSample& r : snapshot.ranks) {
    if (!r.is_io) continue;
    const auto it = snapshot.series.find(
        "ts.rank" + std::to_string(r.rank) + ".obtain_s");
    if (it == snapshot.series.end()) continue;
    // Points the ring bound evicted were the earliest stages.
    const auto first = static_cast<std::size_t>(it->second.dropped);
    const std::vector<SeriesPoint>& points = it->second.points;
    if (stages.size() < first + points.size()) {
      stages.resize(first + points.size());
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      RankSample sample;
      sample.rank = r.rank;
      sample.is_io = 1;
      sample.group = r.group;
      sample.obtain_s = points[i].value;
      stages[first + i].push_back(sample);
    }
  }
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
