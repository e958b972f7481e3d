#include "parcomm/payload_pool.hpp"

#include <cstdlib>
#include <cstring>

namespace senkf::parcomm {

namespace {

struct PoolMetrics {
  telemetry::Counter& hit;
  telemetry::Counter& miss;
  static PoolMetrics& get() {
    auto& registry = telemetry::Registry::global();
    static PoolMetrics m{
        registry.counter("parcomm.pool.hit"),
        registry.counter("parcomm.pool.miss"),
    };
    return m;
  }
};

/// log2 of the smallest power of two >= bytes, clamped to the pooled
/// range; buckets_[i] holds buffers with capacity >= kMinBytes << i.
std::size_t bucket_count() {
  std::size_t n = 0;
  for (std::size_t c = PayloadPool::kMinBytes; c < PayloadPool::kMaxBytes;
       c <<= 1) {
    ++n;
  }
  return n + 1;
}

}  // namespace

bool pool_enabled_from_spec(const char* spec) {
  if (spec == nullptr) return true;
  return !(std::strcmp(spec, "off") == 0 || std::strcmp(spec, "0") == 0 ||
           std::strcmp(spec, "false") == 0);
}

PayloadPool& PayloadPool::global() {
  static PayloadPool pool(pool_enabled_from_spec(std::getenv("SENKF_COMM_POOL")));
  return pool;
}

std::size_t PayloadPool::bucket_of(std::size_t bytes) {
  std::size_t index = 0;
  std::size_t capacity = kMinBytes;
  while (capacity < bytes) {
    capacity <<= 1;
    ++index;
  }
  return index;
}

Payload PayloadPool::acquire(std::size_t bytes) {
  if (enabled_ && bytes <= kMaxBytes) {
    const std::size_t index = bucket_of(bytes);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (buckets_.empty()) buckets_.resize(bucket_count());
      auto& bucket = buckets_[index];
      if (!bucket.empty()) {
        Payload recycled = std::move(bucket.back());
        bucket.pop_back();
        hits_.fetch_add(1, std::memory_order_relaxed);
        PoolMetrics::get().hit.add(1);
        return recycled;  // cleared on release; capacity >= kMinBytes << index
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::get().miss.add(1);
    Payload fresh;
    fresh.reserve(kMinBytes << index);
    return fresh;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  PoolMetrics::get().miss.add(1);
  Payload fresh;
  fresh.reserve(bytes);
  return fresh;
}

void PayloadPool::release(Payload&& buffer) {
  const std::size_t capacity = buffer.capacity();
  if (!enabled_ || capacity < kMinBytes || capacity > kMaxBytes) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Floor bucket: every buffer stored in buckets_[i] must satisfy the
  // capacity >= kMinBytes << i contract acquire() hands out.
  std::size_t index = bucket_of(capacity);
  if ((kMinBytes << index) > capacity) --index;
  buffer.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buckets_.empty()) buckets_.resize(bucket_count());
    auto& bucket = buckets_[index];
    if (bucket.size() < kMaxPerBucket) {
      bucket.push_back(std::move(buffer));
      returned_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

PayloadPool::Stats PayloadPool::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.returned = returned_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace senkf::parcomm
