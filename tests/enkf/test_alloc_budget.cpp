// Steady-state allocation budget gate (DESIGN.md §15).
//
// This binary replaces the global allocator with a counting one and
// drives the scratch analysis API through warm-up and measurement loops:
// after the first pass over every shape, a local analysis must perform
// ZERO heap allocations — not "few", zero.  Any regression (a stray
// owning temporary, a vector rebuilt per patch, a localization rebuilt
// per call) shows up as a nonzero delta here before it shows up as a
// throughput loss in the benchmarks.
//
// The overrides live in this dedicated binary so the rest of the suite
// runs on the stock allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "enkf/local_analysis.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = alignment > alignof(std::max_align_t)
                ? std::aligned_alloc(alignment, (size + alignment - 1) /
                                                    alignment * alignment)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace senkf::enkf {
namespace {

struct Scenario {
  grid::LatLonGrid g{16, 12};
  grid::SyntheticEnsemble ensemble;
  obs::ObservationSet observations;
  linalg::Matrix ys;

  explicit Scenario(std::uint64_t seed, Index members = 8)
      : ensemble(make_ensemble(g, members, seed)),
        observations(make_obs(g, ensemble.truth, seed)),
        ys(obs::perturbed_observations(observations, members,
                                       senkf::Rng(seed + 99))) {}

  static grid::SyntheticEnsemble make_ensemble(const grid::LatLonGrid& g,
                                               Index members,
                                               std::uint64_t seed) {
    senkf::Rng rng(seed);
    return grid::synthetic_ensemble(g, members, rng, 0.5);
  }
  static obs::ObservationSet make_obs(const grid::LatLonGrid& g,
                                      const grid::Field& truth,
                                      std::uint64_t seed) {
    senkf::Rng rng(seed + 1);
    obs::NetworkOptions opt;
    opt.station_count = 40;
    opt.error_std = 0.05;
    return obs::random_network(g, truth, rng, opt);
  }
};

std::uint64_t measure_steady_state(AnalysisKind kind) {
  const Scenario sc(71);
  AnalysisOptions opt;
  opt.kind = kind;
  opt.halo = grid::Halo{2, 1};
  opt.inflation = 1.02;

  const std::vector<grid::Rect> rects = {
      grid::Rect{{0, 16}, {0, 12}},
      grid::Rect{{0, 8}, {0, 8}},
      grid::Rect{{4, 14}, {2, 10}},
  };
  std::vector<std::vector<grid::Patch>> owning;
  std::vector<std::vector<grid::PatchView>> views;
  for (const grid::Rect rect : rects) {
    std::vector<grid::Patch> patches;
    for (const auto& m : sc.ensemble.members) patches.push_back(m.extract(rect));
    owning.push_back(std::move(patches));
  }
  for (const auto& patches : owning) {
    views.emplace_back(patches.begin(), patches.end());
  }

  LocalAnalysisWorkspace ws;
  // Warm-up: grow the arena to the largest shape, populate the
  // localization cache, initialize every function-local static.  Two
  // passes: the first pass only ever MISSES the localization cache, and
  // the hit path has its own lazily-created telemetry counter — the
  // second pass exercises it so its one-time registration doesn't land
  // in the measured loop.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < rects.size(); ++i) {
      (void)local_analysis_scratch(views[i], rects[i], rects[i],
                                   sc.observations, sc.ys, opt, ws);
    }
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  constexpr int kIterations = 20;
  for (int it = 0; it < kIterations; ++it) {
    for (std::size_t i = 0; i < rects.size(); ++i) {
      (void)local_analysis_scratch(views[i], rects[i], rects[i],
                                   sc.observations, sc.ys, opt, ws);
    }
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, StochasticSteadyStateIsAllocationFree) {
  EXPECT_EQ(measure_steady_state(AnalysisKind::kStochasticModifiedCholesky),
            0u);
}

TEST(AllocBudget, DeterministicSteadyStateIsAllocationFree) {
  EXPECT_EQ(measure_steady_state(AnalysisKind::kDeterministicTransform), 0u);
}

TEST(AllocBudget, CountingAllocatorIsLive) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto* sink = new std::vector<double>(1024, 0.0);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  delete sink;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace senkf::enkf
