#include "telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace senkf::telemetry {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::logic_error(
        "Histogram: bucket bounds must be non-empty and strictly increasing");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  // Bucket before count, both release: a reader that acquires `count`
  // is guaranteed to see the bucket increments of every counted
  // observation, which is what makes cut() converge.
  buckets_[index].fetch_add(1, std::memory_order_release);
  count_.fetch_add(1, std::memory_order_release);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_acquire);
  }
  return out;
}

HistogramCut Histogram::cut() const {
  HistogramCut out;
  out.buckets.resize(bounds_.size() + 1);
  // Read count, then buckets: release ordering in observe() guarantees
  // the buckets hold at least `count` increments, so equality of the
  // two sums identifies a consistent cut.  Bounded retry — under a
  // write storm the bucket sum itself is a valid (slightly newer) cut.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t count = count_.load(std::memory_order_acquire);
    std::uint64_t bucket_sum = 0;
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] = buckets_[i].load(std::memory_order_acquire);
      bucket_sum += out.buckets[i];
    }
    out.count = bucket_sum;
    out.sum = sum_.load(std::memory_order_relaxed);
    if (bucket_sum == count) break;
  }
  return out;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> exponential_bounds(double first, double factor,
                                       std::size_t count) {
  if (first <= 0.0 || factor <= 1.0) {
    throw std::logic_error(
        "exponential_bounds: need first > 0 and factor > 1");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = first;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets,
                          double q) {
  if (bounds.empty() || buckets.size() != bounds.size() + 1) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  // Target observation index (1-based); walk cumulative counts to the
  // bucket containing it, then interpolate linearly within the bucket.
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i == bounds.size()) {
      // Overflow bucket is unbounded above; clamp to the largest finite
      // bound rather than invent an upper edge.
      return bounds.back();
    }
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    if (buckets[i] == 0) return upper;
    const double fraction =
        (target - static_cast<double>(before)) / static_cast<double>(buckets[i]);
    return lower + (upper - lower) * fraction;
  }
  return bounds.back();
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked: outlives atexit users
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[std::string(name)];
  if (entry.gauge || entry.histogram) {
    throw std::logic_error("Registry: '" + std::string(name) +
                           "' already registered as another metric kind");
  }
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[std::string(name)];
  if (entry.counter || entry.histogram) {
    throw std::logic_error("Registry: '" + std::string(name) +
                           "' already registered as another metric kind");
  }
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[std::string(name)];
  if (entry.counter || entry.gauge) {
    throw std::logic_error("Registry: '" + std::string(name) +
                           "' already registered as another metric kind");
  }
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else if (entry.histogram->bounds() != bounds) {
    throw std::logic_error("Registry: histogram '" + std::string(name) +
                           "' re-registered with different bounds");
  }
  return *entry.histogram;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.counter
             ? it->second.counter->value()
             : 0;
}

double Registry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.gauge ? it->second.gauge->value()
                                                  : 0.0;
}

MetricRow histogram_row(std::string name, const Histogram& histogram) {
  MetricRow row;
  row.name = std::move(name);
  row.kind = MetricRow::Kind::kHistogram;
  row.bounds = histogram.bounds();
  HistogramCut cut = histogram.cut();
  row.buckets = std::move(cut.buckets);
  row.count = cut.count;
  row.sum = cut.sum;
  return row;
}

std::vector<MetricRow> Registry::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricRow> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    if (entry.histogram) {
      out.push_back(histogram_row(name, *entry.histogram));
      continue;
    }
    MetricRow row;
    row.name = name;
    if (entry.counter) {
      row.kind = MetricRow::Kind::kCounter;
      row.counter = entry.counter->value();
    } else if (entry.gauge) {
      row.kind = MetricRow::Kind::kGauge;
      row.gauge = entry.gauge->value();
    } else {
      continue;
    }
    out.push_back(std::move(row));
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    if (entry.counter) entry.counter->reset();
    if (entry.gauge) entry.gauge->reset();
    if (entry.histogram) entry.histogram->reset();
  }
}

}  // namespace senkf::telemetry
