// Monotonic workspace arena — the allocation plane of the zero-allocation
// analysis hot path (DESIGN.md §15).
//
// An Arena hands out bump-pointer allocations from a small list of large
// chunks; `reset()` rewinds the bump pointer without returning memory to
// the heap, so a workspace that is reused across patches and cycles
// reaches a steady state where `allocate()` never touches the heap again
// (the chunk list grows until the largest patch has been seen once, then
// stays).  `mark()` / `rewind()` give nested scopes the same property —
// the modified-Cholesky row sweep rewinds its per-row temporaries so n̄
// rows cost the memory of one.
//
// Arenas are single-threaded by design: each ThreadPool worker owns one
// (via enkf::LocalAnalysisWorkspace).  Stats (high-water bytes, chunk
// allocations, resets) are exported by the owner as `analysis.arena.*`.
//
// Mode::kHeap makes every allocation an individual heap block that
// `rewind()`/`reset()` actually frees — the mode in which
// AddressSanitizer sees a use-after-rewind as a real use-after-free
// instead of a silent read of recycled arena bytes, and the tests'
// cross-check that results do not depend on the allocation strategy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace senkf::support {

class Arena {
 public:
  /// Every allocation is aligned to this (cache line; superset of any
  /// SIMD vector alignment the kernels use).
  static constexpr std::size_t kAlignment = 64;

  enum class Mode {
    kPooled,   ///< chunked bump allocator (the fast path)
    kHeap,     ///< one heap block per allocation, freed on rewind
  };

  struct Stats {
    std::size_t high_water_bytes = 0;  ///< max bytes in use at once
    std::size_t capacity_bytes = 0;    ///< total bytes owned by chunks
    std::uint64_t chunk_allocs = 0;    ///< heap allocations made (chunks
                                       ///< in pooled mode, blocks in heap
                                       ///< mode) — 0 growth = steady state
    std::uint64_t resets = 0;          ///< reset() calls
  };

  explicit Arena(Mode mode = Mode::kPooled);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to kAlignment.  The memory is
  /// uninitialized and valid until the enclosing rewind()/reset().
  void* allocate(std::size_t bytes);

  /// Typed convenience: `count` elements of a trivially-copyable T.
  template <typename T>
  std::span<T> allocate_span(std::size_t count) {
    return {static_cast<T*>(allocate(count * sizeof(T))), count};
  }

  /// A point in the allocation stream; everything allocated after a mark
  /// is released by rewinding to it.
  struct Marker {
    std::size_t chunk = 0;
    std::size_t used = 0;
    std::size_t in_use = 0;
    std::size_t blocks = 0;  ///< heap mode: live block count
  };

  Marker mark() const;
  void rewind(const Marker& marker);

  /// Releases everything (monotonic rewind to empty; frees blocks in
  /// heap mode, keeps chunks in pooled mode).
  void reset();

  bool pooled() const { return pooled_; }
  std::size_t bytes_in_use() const { return in_use_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
  };

  void* allocate_pooled(std::size_t bytes);
  void* allocate_heap(std::size_t bytes);

  bool pooled_ = true;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk being bumped
  std::size_t used_ = 0;    ///< bytes used in the active chunk
  std::size_t in_use_ = 0;  ///< live bytes across all chunks/blocks
  std::vector<void*> blocks_;  ///< heap mode: individually freed
  Stats stats_;
};

}  // namespace senkf::support
