// Metrics registry: counter/gauge identity, histogram "le" bucket
// boundary semantics, registration error cases, concurrent updates, and
// the sorted rows every exporter writes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace senkf::telemetry {
namespace {

// The global registry persists across tests; use per-test metric names so
// suites stay independent, and a fresh local Registry where totals matter.

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, HoldsTheLastValueSet) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(1.25);
  EXPECT_EQ(g.value(), 1.25);
  g.set(-0.1);  // a fraction and a sign, as a relative drift has
  EXPECT_EQ(g.value(), -0.1);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundariesAreLessOrEqual) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1        -> bucket 0
  h.observe(1.0);   // == bound 1  -> bucket 0 (le semantics)
  h.observe(1.5);   // <= 2        -> bucket 1
  h.observe(4.0);   // == bound 4  -> bucket 2
  h.observe(4.01);  // > last      -> overflow
  h.observe(100.0);

  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 4.01 + 100.0);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0, 2.0}), std::logic_error);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({}), std::logic_error);
}

TEST(Histogram, ConcurrentObservesLoseNothing) {
  Histogram h(exponential_bounds(1.0, 4.0, 10));
  constexpr int kThreads = 8;
  constexpr int kObservations = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObservations; ++i) h.observe(3.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kObservations);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0 * kThreads * kObservations);
  EXPECT_EQ(h.bucket_counts()[1], h.count());  // 1 < 3 <= 4
}

TEST(ExponentialBounds, LadderShape) {
  const auto bounds = exponential_bounds(1.0, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4.0);
  EXPECT_DOUBLE_EQ(bounds[2], 16.0);
  EXPECT_DOUBLE_EQ(bounds[3], 64.0);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry r;
  Counter& a = r.counter("x.count");
  Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(r.counter_value("x.count"), 3u);
  EXPECT_EQ(r.counter_value("never.registered"), 0u);
}

TEST(Registry, KindAndBoundsConflictsThrow) {
  Registry r;
  r.counter("metric.a");
  EXPECT_THROW(r.gauge("metric.a"), std::logic_error);
  EXPECT_THROW(r.histogram("metric.a", {1.0}), std::logic_error);

  r.histogram("metric.h", {1.0, 2.0});
  EXPECT_NO_THROW(r.histogram("metric.h", {1.0, 2.0}));
  EXPECT_THROW(r.histogram("metric.h", {1.0, 3.0}), std::logic_error);
}

TEST(Registry, RowsAreSortedByName) {
  Registry r;
  r.counter("b.counter").add(7);
  r.gauge("a.gauge").set(-2.5);
  Histogram& h = r.histogram("c.hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(42.0);

  const std::vector<MetricRow> rows = r.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "a.gauge");
  EXPECT_EQ(rows[0].kind, MetricRow::Kind::kGauge);
  EXPECT_EQ(rows[0].gauge, -2.5);
  EXPECT_EQ(rows[1].name, "b.counter");
  EXPECT_EQ(rows[1].kind, MetricRow::Kind::kCounter);
  EXPECT_EQ(rows[1].counter, 7u);
  EXPECT_EQ(rows[2].name, "c.hist");
  EXPECT_EQ(rows[2].kind, MetricRow::Kind::kHistogram);
  EXPECT_EQ(rows[2].count, 2u);
  EXPECT_EQ(rows[2].buckets, (std::vector<std::uint64_t>{1, 0, 1}));
  EXPECT_EQ(rows[2].sum, 42.5);
}

TEST(Registry, ResetZeroesButKeepsRegistrations) {
  Registry r;
  Counter& c = r.counter("z.count");
  c.add(9);
  r.histogram("z.hist", {1.0}).observe(0.5);
  r.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&r.counter("z.count"), &c);
  EXPECT_EQ(r.histogram("z.hist", {1.0}).count(), 0u);
}

TEST(Registry, GlobalIsASingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(HistogramQuantile, InterpolatesWithinBucket) {
  // 100 observations spread uniformly over the (0, 10] bucket: p50 lands
  // mid-bucket, p90 at 9/10 of it.
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> buckets{100, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.90), 9.0);
}

TEST(HistogramQuantile, WalksCumulativeAcrossBuckets) {
  // 50 in (0,10], 30 in (10,20], 20 overflow.
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> buckets{50, 30, 20};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.50), 10.0);
  // p75: target 75, 25 into the 30-wide second bucket → 10 + 10*25/30.
  EXPECT_NEAR(histogram_quantile(bounds, buckets, 0.75),
              10.0 + 10.0 * 25.0 / 30.0, 1e-12);
  // Quantiles in the overflow bucket clamp to the last finite bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.99), 20.0);
}

TEST(HistogramQuantile, MonotoneInQ) {
  const std::vector<double> bounds{1.0, 2.0, 4.0, 8.0};
  const std::vector<std::uint64_t> buckets{3, 7, 11, 2, 1};
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = histogram_quantile(bounds, buckets, q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(HistogramQuantile, DegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(histogram_quantile({}, {}, 0.5), 0.0);
  // All-zero buckets: no observations.
  EXPECT_DOUBLE_EQ(histogram_quantile({1.0}, {0, 0}, 0.5), 0.0);
  // Mismatched shapes never read out of bounds.
  EXPECT_DOUBLE_EQ(histogram_quantile({1.0, 2.0}, {5}, 0.5), 0.0);
}

TEST(HistogramQuantile, AllObservationsInOverflowClampToLastBound) {
  // Every observation exceeded the ladder: any quantile is a lower-bound
  // estimate clamped to the largest finite bound, never an invented edge.
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> buckets{0, 0, 42};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.01), 2.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.50), 2.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 1.00), 2.0);
}

TEST(HistogramQuantile, SingleSampleInterpolatesInsideItsBucket) {
  // One observation in (10, 20]: every q maps into that bucket, and
  // q=1 reaches its upper bound exactly.
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> buckets{0, 1, 0};
  const double p50 = histogram_quantile(bounds, buckets, 0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 20.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 1.0), 20.0);
}

TEST(HistogramQuantile, ClampsQ) {
  const std::vector<double> bounds{10.0};
  const std::vector<std::uint64_t> buckets{10, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, -1.0),
                   histogram_quantile(bounds, buckets, 0.0));
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 2.0),
                   histogram_quantile(bounds, buckets, 1.0));
}

}  // namespace
}  // namespace senkf::telemetry
