// Process-wide metrics registry (DESIGN.md §7): named counters, gauges
// and fixed-bucket histograms, read as MetricRows by the /metrics
// exposition and the run report, and one value at a time by tests.
//
// Creation/lookup takes the registry mutex; call sites on hot paths hold
// a `static` reference so steady-state updates are plain atomics.
// Metrics always accumulate — they are the cheap always-on,
// process-cumulative layer (S-EnKF adds its run ledger's totals here once
// per call, DESIGN.md §11) — while spans (trace.hpp) are the opt-in
// detailed layer behind SENKF_TRACE.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace senkf::telemetry {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// The last value set, in the value's own unit (a ratio, a relative
/// error, a byte count).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A consistent point-in-time cut of one histogram: the bucket counts
/// sum exactly to `count`, so a scrape taken mid-run never shows a
/// torn total (DESIGN.md §16).  `sum` may trail the cut by in-flight
/// observations (it is a lock-free accumulator, not part of the seq
/// check) — quantiles and rates derive from the buckets, which are
/// exact.
struct HistogramCut {
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed upper-bound buckets with `value <= bound` (Prometheus "le")
/// semantics plus an implicit overflow bucket; bounds must be strictly
/// increasing.  observe() is wait-free (one binary search + two atomics);
/// the bucket increment is a release write ordered before the count
/// increment, so cut() can take tear-free scrape-time snapshots while
/// writers keep observing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Consistent snapshot under concurrent observes: retries the
  /// count-then-buckets read until the bucket sum equals the count
  /// (bounded; falls back to the bucket sum, itself a valid cut).
  HistogramCut cut() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket ladder for latency-in-microseconds histograms.
std::vector<double> exponential_bounds(double first, double factor,
                                       std::size_t count);

/// Quantile estimate over "le"-bucket counts by linear interpolation
/// within the bucket holding the q-th observation (Prometheus
/// histogram_quantile semantics).  `buckets` has bounds.size() + 1
/// entries, the last being the overflow bucket; a quantile landing there
/// is clamped to the largest finite bound (the estimate is a lower
/// bound, as with any bucketed quantile).  Returns 0 when there are no
/// observations; q is clamped to [0, 1].
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets, double q);

/// One metric with its current values: what Registry::rows() returns,
/// and the one representation the /metrics exposition and the run
/// report write (DESIGN.md §11).
struct MetricRow {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  std::vector<double> bounds;            ///< histogram only
  std::vector<std::uint64_t> buckets;    ///< bounds.size() + 1 entries
  std::uint64_t count = 0;               ///< histogram only
  double sum = 0.0;                      ///< histogram only
};

/// `histogram` cut (Histogram::cut) into a row named `name`.
MetricRow histogram_row(std::string name, const Histogram& histogram);

class Registry {
 public:
  /// The process-wide registry every instrumented plane reports into.
  static Registry& global();

  /// Creates on first use; later calls with the same name return the same
  /// object.  A histogram re-registered with different bounds throws
  /// std::logic_error, as does registering one name as two metric kinds.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Programmatic reads for tests/facades; absent names read as zero.
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  /// Every registered metric with its current values, sorted by name.
  /// Values are read without stopping writers; concurrent updates may
  /// land between rows, but each histogram row is individually tear-free
  /// (its bucket counts sum to its count — see Histogram::cut), so a
  /// scrape taken mid-run is always internally consistent per metric.
  std::vector<MetricRow> rows() const;

  /// Zeroes every registered metric (keeps registrations).
  void reset();

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace senkf::telemetry
