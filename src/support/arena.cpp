#include "support/arena.hpp"

#include <algorithm>
#include <new>

#include "support/error.hpp"

namespace senkf::support {

namespace {

constexpr std::size_t kMinChunkBytes = std::size_t{64} * 1024;

std::size_t align_up(std::size_t n) {
  return (n + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena::Arena(Mode mode) : pooled_(mode == Mode::kPooled) {}

Arena::~Arena() {
  rewind(Marker{});  // frees kHeap blocks; pooled chunks are freed below
  for (Chunk& chunk : chunks_) {
    ::operator delete(chunk.data, std::align_val_t{kAlignment});
  }
}

void* Arena::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = kAlignment;  // distinct, aligned, harmless
  bytes = align_up(bytes);
  void* out = pooled_ ? allocate_pooled(bytes) : allocate_heap(bytes);
  in_use_ += bytes;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, in_use_);
  return out;
}

void* Arena::allocate_pooled(std::size_t bytes) {
  // Bump within the active chunk; on overflow, advance through existing
  // chunks (they survive reset) before growing the list.
  while (active_ < chunks_.size()) {
    if (used_ + bytes <= chunks_[active_].size) {
      void* out = chunks_[active_].data + used_;
      used_ += bytes;
      return out;
    }
    ++active_;
    used_ = 0;
  }
  // Doubling growth bounds the chunk count at log(total); the first
  // chunk is big enough that small analyses never grow at all.
  const std::size_t last = chunks_.empty() ? 0 : chunks_.back().size;
  const std::size_t size = std::max({bytes, 2 * last, kMinChunkBytes});
  Chunk chunk;
  chunk.data = static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{kAlignment}));
  chunk.size = size;
  chunks_.push_back(chunk);
  stats_.chunk_allocs += 1;
  stats_.capacity_bytes += size;
  active_ = chunks_.size() - 1;
  used_ = bytes;
  return chunk.data;
}

void* Arena::allocate_heap(std::size_t bytes) {
  void* out = ::operator new(bytes, std::align_val_t{kAlignment});
  blocks_.push_back(out);
  stats_.chunk_allocs += 1;
  return out;
}

Arena::Marker Arena::mark() const {
  Marker marker;
  marker.chunk = active_;
  marker.used = used_;
  marker.in_use = in_use_;
  marker.blocks = blocks_.size();
  return marker;
}

void Arena::rewind(const Marker& marker) {
  SENKF_ASSERT(marker.in_use <= in_use_);
  if (pooled_) {
    active_ = marker.chunk;
    used_ = marker.used;
  } else {
    while (blocks_.size() > marker.blocks) {
      ::operator delete(blocks_.back(), std::align_val_t{kAlignment});
      blocks_.pop_back();
    }
  }
  in_use_ = marker.in_use;
}

void Arena::reset() {
  // Consolidate a grown arena into one contiguous chunk of the same
  // total capacity.  A multi-chunk replay walks the chunk list from the
  // start and can straddle boundaries differently than the growth pass
  // did (remainders are skipped), so it may need MORE capacity than the
  // pass that grew it; a single chunk has no boundaries, so anything
  // that ever fit keeps fitting — steady state is reached one reset
  // after the largest shape, permanently.
  if (pooled_ && chunks_.size() > 1) {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    for (Chunk& chunk : chunks_) {
      ::operator delete(chunk.data, std::align_val_t{kAlignment});
    }
    chunks_.clear();
    Chunk merged;
    merged.data = static_cast<std::byte*>(
        ::operator new(total, std::align_val_t{kAlignment}));
    merged.size = total;
    chunks_.push_back(merged);
    stats_.chunk_allocs += 1;
    stats_.capacity_bytes = total;
  }
  rewind(Marker{});
  stats_.resets += 1;
}

}  // namespace senkf::support
