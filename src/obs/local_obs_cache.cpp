#include "obs/local_obs_cache.hpp"

#include <map>
#include <mutex>
#include <shared_mutex>
#include <tuple>

#include "telemetry/metrics.hpp"

namespace senkf::obs {

namespace {

// (epoch, rect) totally ordered for std::map.
using Key = std::tuple<std::uint64_t, Index, Index, Index, Index>;

Key make_key(const ObservationSet& observations, grid::Rect rect) {
  return {observations.epoch(), rect.x.begin, rect.x.end, rect.y.begin,
          rect.y.end};
}

struct Cache {
  // A single network localizes to at most one entry per sub-domain; the
  // cap only matters when many epochs fly through without superseding
  // each other (a caller alternating between live networks), where it
  // bounds memory.
  static constexpr std::size_t kMaxEntries = 4096;

  std::shared_mutex mutex;
  std::map<Key, std::shared_ptr<const LocalObservations>> entries;
  std::uint64_t newest_epoch = 0;
  std::size_t bytes = 0;  ///< Σ memory_bytes() over `entries`
};

Cache& cache() {
  static Cache instance;
  return instance;
}

telemetry::Counter& hits() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("analysis.localization.hits");
  return c;
}

telemetry::Counter& misses() {
  static telemetry::Counter& c =
      telemetry::Registry::global().counter("analysis.localization.misses");
  return c;
}

telemetry::Gauge& entries_gauge() {
  static telemetry::Gauge& g =
      telemetry::Registry::global().gauge("analysis.localization.entries");
  return g;
}

telemetry::Gauge& bytes_gauge() {
  static telemetry::Gauge& g =
      telemetry::Registry::global().gauge("analysis.localization.bytes");
  return g;
}

/// Erases [first, last), keeping the byte total in step.
template <typename It>
void erase_entries(Cache& c, It first, It last) {
  for (It it = first; it != last;) {
    c.bytes -= it->second->memory_bytes();
    it = c.entries.erase(it);
  }
}

}  // namespace

std::shared_ptr<const LocalObservations> localized(
    const ObservationSet& observations, grid::Rect rect) {
  Cache& c = cache();
  const Key key = make_key(observations, rect);
  {
    std::shared_lock lock(c.mutex);
    const auto it = c.entries.find(key);
    if (it != c.entries.end()) {
      hits().add();
      return it->second;
    }
  }

  // Build outside any lock (selection scans the whole network);
  // concurrent builders of the same key race benignly — first insert
  // wins and the loser's build is returned to that caller only.
  misses().add();
  auto built = std::make_shared<const LocalObservations>(observations, rect);

  std::unique_lock lock(c.mutex);
  const auto [it, inserted] = c.entries.emplace(key, built);
  if (!inserted) return it->second;
  c.bytes += built->memory_bytes();
  if (observations.epoch() > c.newest_epoch) {
    // A newer observation set supersedes older ones: their rects will
    // not be queried again, so drop them eagerly (map order is
    // epoch-major, so they form a prefix).
    c.newest_epoch = observations.epoch();
    erase_entries(c, c.entries.begin(),
                  c.entries.lower_bound(Key{c.newest_epoch, 0, 0, 0, 0}));
  }
  if (c.entries.size() > Cache::kMaxEntries) {
    // Pathological many-epochs-alive case: shed the oldest epochs first.
    auto cut = c.entries.begin();
    std::advance(cut, c.entries.size() - Cache::kMaxEntries);
    erase_entries(c, c.entries.begin(), cut);
  }
  entries_gauge().set(static_cast<std::int64_t>(c.entries.size()));
  bytes_gauge().set(static_cast<std::int64_t>(c.bytes));
  return built;
}

void clear_localization_cache() {
  Cache& c = cache();
  std::unique_lock lock(c.mutex);
  c.entries.clear();
  c.newest_epoch = 0;
  c.bytes = 0;
  entries_gauge().set(0);
  bytes_gauge().set(0);
}

std::size_t localization_cache_size() {
  Cache& c = cache();
  std::shared_lock lock(c.mutex);
  return c.entries.size();
}

}  // namespace senkf::obs
