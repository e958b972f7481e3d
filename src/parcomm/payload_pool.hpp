// Thread-safe, size-bucketed recycling pool for message payload buffers.
//
// The message plane allocates one buffer per message; at block-message
// rates that is the allocator on the hot path.  The pool keeps released
// buffers in power-of-two capacity buckets so a Packer's `reserve()`
// reuses a previous message's allocation instead of growing a fresh
// vector.  Release is wired into SharedPayload's deleter: when the last
// handle to a sealed payload drops (sender and every receiver done), the
// buffer comes back here.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "parcomm/wire.hpp"

namespace senkf::parcomm {

class PayloadPool {
 public:
  /// Smallest / largest capacities worth recycling; outside this range
  /// acquire and release degrade to plain allocation.
  static constexpr std::size_t kMinBytes = 256;
  static constexpr std::size_t kMaxBytes = std::size_t{64} << 20;
  /// Per-bucket retention cap: beyond it released buffers are freed, so
  /// a burst can never pin more than ~2× its peak footprint.
  static constexpr std::size_t kMaxPerBucket = 64;

  /// The process-wide pool every Packer/SharedPayload uses.
  static PayloadPool& global();

  /// A cleared buffer with capacity >= `bytes` — recycled when a bucket
  /// has one (hit), freshly reserved otherwise (miss).
  Payload acquire(std::size_t bytes);

  /// Returns a buffer for reuse; drops it when the capacity is out of
  /// range or the bucket is full.
  void release(Payload&& buffer);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t returned = 0;
    std::uint64_t dropped = 0;
  };
  Stats stats() const;

 private:
  static std::size_t bucket_of(std::size_t bytes);

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> returned_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<std::vector<Payload>> buckets_;
};

}  // namespace senkf::parcomm
