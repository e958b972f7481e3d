// Localization-cache correctness (DESIGN.md §15): hits return the same
// immutable instance, and a new ObservationSet (new epoch) never sees
// stale entries.
#include "obs/local_obs_cache.hpp"

#include <gtest/gtest.h>

#include "grid/synthetic.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::obs {
namespace {

struct Scenario {
  grid::LatLonGrid g{16, 12};
  grid::Field truth;
  ObservationSet observations;

  explicit Scenario(std::uint64_t seed)
      : truth(make_truth(g, seed)), observations(make_obs(g, truth, seed)) {}

  static grid::Field make_truth(const grid::LatLonGrid& g,
                                std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(g, 2, rng, 0.5).truth;
  }
  static ObservationSet make_obs(const grid::LatLonGrid& g,
                                 const grid::Field& truth,
                                 std::uint64_t seed) {
    senkf::Rng rng(seed + 1);
    NetworkOptions opt;
    opt.station_count = 30;
    opt.error_std = 0.05;
    return random_network(g, truth, rng, opt);
  }
};

class LocalObsCache : public ::testing::Test {
 protected:
  void SetUp() override { clear_localization_cache(); }
  void TearDown() override { clear_localization_cache(); }
};

TEST_F(LocalObsCache, RepeatLookupReturnsTheSameInstance) {
  const Scenario sc(61);
  const grid::Rect rect{{0, 12}, {0, 8}};
  auto& registry = telemetry::Registry::global();
  const auto hits0 = registry.counter_value("analysis.localization.hits");
  const auto misses0 = registry.counter_value("analysis.localization.misses");

  const auto first = localized(sc.observations, rect);
  const auto second = localized(sc.observations, rect);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(localization_cache_size(), 1u);
  EXPECT_EQ(registry.counter_value("analysis.localization.misses"),
            misses0 + 1);
  EXPECT_EQ(registry.counter_value("analysis.localization.hits"), hits0 + 1);

  // A different rect is a different key.
  const auto other = localized(sc.observations, grid::Rect{{0, 8}, {0, 8}});
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(localization_cache_size(), 2u);
}

TEST_F(LocalObsCache, CachedProductsMatchAFreshBuild) {
  const Scenario sc(62);
  const grid::Rect rect{{2, 14}, {1, 11}};
  const auto cached = localized(sc.observations, rect);
  const LocalObservations fresh(sc.observations, rect);
  ASSERT_EQ(cached->size(), fresh.size());
  EXPECT_EQ(cached->selected(), fresh.selected());
  for (Index r = 0; r < fresh.size(); ++r) {
    EXPECT_EQ(cached->r_diagonal()[r], fresh.r_diagonal()[r]);
    EXPECT_EQ(cached->r_inverse()[r], fresh.r_inverse()[r]);
    EXPECT_EQ(cached->local_values()[r], fresh.local_values()[r]);
  }
}

TEST_F(LocalObsCache, NewObservationSetEvictsTheOldEpoch) {
  const Scenario sc(63);
  const grid::Rect rect{{0, 12}, {0, 8}};
  const auto old_entry = localized(sc.observations, rect);
  EXPECT_EQ(localization_cache_size(), 1u);

  // A fresh set — even with identical content — has a new epoch: the
  // lookup must rebuild, and inserting the new epoch evicts the old one.
  const Scenario sc2(63);
  EXPECT_GT(sc2.observations.epoch(), sc.observations.epoch());
  const auto new_entry = localized(sc2.observations, rect);
  EXPECT_NE(new_entry.get(), old_entry.get());
  EXPECT_EQ(localization_cache_size(), 1u);

  // The evicted instance stays valid for holders of the pointer.
  EXPECT_EQ(old_entry->rect().x.begin, rect.x.begin);
}

double bytes_gauge() {
  auto& registry = telemetry::Registry::global();
  return registry.gauge("analysis.localization.bytes").value();
}

TEST_F(LocalObsCache, BytesGaugeTracksLiveEntries) {
  const Scenario sc(64);
  double live = 0.0;
  for (const Index x : {0, 2, 4, 8}) {
    const auto entry =
        localized(sc.observations, grid::Rect{{x, x + 8}, {x / 2, x / 2 + 6}});
    live += static_cast<double>(entry->memory_bytes());
    EXPECT_EQ(bytes_gauge(), live);
  }
  // A hit adds nothing.
  localized(sc.observations, grid::Rect{{0, 8}, {0, 6}});
  EXPECT_EQ(bytes_gauge(), live);

  // A newer epoch evicts every entry above: only its own remains.
  const Scenario newer(64);
  const auto entry = localized(newer.observations, grid::Rect{{0, 8}, {0, 8}});
  EXPECT_EQ(localization_cache_size(), 1u);
  EXPECT_EQ(bytes_gauge(), static_cast<double>(entry->memory_bytes()));

  clear_localization_cache();
  EXPECT_EQ(bytes_gauge(), 0.0);
}

TEST_F(LocalObsCache, SparseEntryOfTheFileWorkloadIsSmall) {
  // A 66×26 expansion of a 3000-station bilinear network on 360×180 —
  // the shape of an ocean-det-files layer expansion.  Densified, its
  // H̄, R⁻¹H̄ and H̄ᵀR⁻¹H̄ take ~25 MB.
  const grid::LatLonGrid g(360, 180);
  senkf::Rng rng(5);
  const grid::Field truth(g, 1.0);
  NetworkOptions opt;
  opt.station_count = 3000;
  opt.bilinear = true;
  const ObservationSet network = random_network(g, truth, rng, opt);
  const auto entry = localized(network, grid::Rect{{60, 126}, {40, 66}});
  ASSERT_GT(entry->size(), 0u);
  EXPECT_LT(entry->memory_bytes(), 64u * 1024u);
  EXPECT_EQ(bytes_gauge(), static_cast<double>(entry->memory_bytes()));
}

TEST_F(LocalObsCache, EpochsAreUniqueAndMonotonicPerConstruction) {
  const Scenario a(65);
  const Scenario b(66);
  EXPECT_NE(a.observations.epoch(), b.observations.epoch());
  EXPECT_GT(b.observations.epoch(), a.observations.epoch());
}

}  // namespace
}  // namespace senkf::obs
