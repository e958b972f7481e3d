#include "enkf/analysis_workspace.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "telemetry/metrics.hpp"

namespace senkf::enkf {

namespace {

void max_update(telemetry::Gauge& gauge, double candidate) {
  // Benign race: concurrent max-updates may momentarily publish the
  // smaller value; the next reset() republishes the true maximum.
  if (candidate > gauge.value()) gauge.set(candidate);
}

// Pool of workspaces that outlives any ThreadPool: workers lease one for
// their lifetime and return it (chunks and all) when the thread exits.
struct WorkspacePool {
  std::mutex mutex;
  std::vector<std::unique_ptr<LocalAnalysisWorkspace>> free;
};

WorkspacePool& pool() {
  static WorkspacePool instance;
  return instance;
}

struct Lease {
  std::unique_ptr<LocalAnalysisWorkspace> workspace;

  Lease() {
    WorkspacePool& p = pool();
    std::lock_guard lock(p.mutex);
    if (!p.free.empty()) {
      workspace = std::move(p.free.back());
      p.free.pop_back();
    } else {
      workspace = std::make_unique<LocalAnalysisWorkspace>();
    }
  }

  ~Lease() {
    // Publish the tail: allocations made by this thread's last analysis
    // would otherwise surface only at the *next* reset, smearing one
    // run's warm-up into the next run's steady-state counters.
    workspace->reset();
    WorkspacePool& p = pool();
    std::lock_guard lock(p.mutex);
    p.free.push_back(std::move(workspace));
  }
};

}  // namespace

LocalAnalysisWorkspace::LocalAnalysisWorkspace(support::Arena::Mode mode)
    : arena_(mode) {}

linalg::Matrix LocalAnalysisWorkspace::matrix(Index rows, Index cols) {
  const Index stride = linalg::Matrix::padded_stride(cols);
  auto storage = arena_.allocate_span<double>(rows * stride);
  std::fill(storage.begin(), storage.end(), 0.0);
  return linalg::Matrix::scratch(storage, rows, cols, stride);
}

linalg::Vector LocalAnalysisWorkspace::vector(Index size) {
  auto storage = arena_.allocate_span<double>(size);
  std::fill(storage.begin(), storage.end(), 0.0);
  return linalg::Vector::scratch(storage);
}

std::span<double> LocalAnalysisWorkspace::doubles(Index count) {
  auto storage = arena_.allocate_span<double>(count);
  std::fill(storage.begin(), storage.end(), 0.0);
  return storage;
}

std::span<linalg::Index> LocalAnalysisWorkspace::indices(Index count) {
  return arena_.allocate_span<linalg::Index>(count);
}

std::span<grid::PatchView> LocalAnalysisWorkspace::views(Index count) {
  // PatchView is not an implicit-lifetime type, so start each slot's
  // lifetime explicitly (trivial destructor — rewinding is enough).
  void* storage = arena_.allocate(count * sizeof(grid::PatchView));
  auto* first = static_cast<grid::PatchView*>(storage);
  for (Index i = 0; i < count; ++i) new (first + i) grid::PatchView();
  return {first, count};
}

void LocalAnalysisWorkspace::reset() {
  arena_.reset();
  const support::Arena::Stats& stats = arena_.stats();

  static telemetry::Counter& alloc_events =
      telemetry::Registry::global().counter("analysis.alloc.events");
  static telemetry::Counter& resets =
      telemetry::Registry::global().counter("analysis.arena.resets");
  static telemetry::Gauge& high_water =
      telemetry::Registry::global().gauge("analysis.arena.high_water");
  static telemetry::Gauge& capacity =
      telemetry::Registry::global().gauge("analysis.arena.capacity");

  alloc_events.add(stats.chunk_allocs - published_allocs_);
  published_allocs_ = stats.chunk_allocs;
  resets.add(1);
  max_update(high_water, static_cast<double>(stats.high_water_bytes));
  max_update(capacity, static_cast<double>(stats.capacity_bytes));
}

LocalAnalysisWorkspace& LocalAnalysisWorkspace::for_this_thread() {
  thread_local Lease lease;
  return *lease.workspace;
}

}  // namespace senkf::enkf
