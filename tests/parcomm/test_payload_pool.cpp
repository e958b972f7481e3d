#include "parcomm/payload_pool.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "parcomm/runtime.hpp"

namespace senkf::parcomm {
namespace {

TEST(PayloadPool, RecyclesReleasedBuffer) {
  PayloadPool pool;
  Payload a = pool.acquire(1000);
  EXPECT_GE(a.capacity(), 1000u);
  a.resize(1000);
  const std::byte* storage = a.data();
  pool.release(std::move(a));

  // A smaller request in the same bucket reuses the exact allocation,
  // cleared.
  Payload b = pool.acquire(900);
  EXPECT_EQ(b.data(), storage);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 900u);

  const PayloadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.returned, 1u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(PayloadPool, CapacityContractAcrossBuckets) {
  PayloadPool pool;
  // A 1.5 KiB-capacity buffer floors into the 1 KiB bucket, so a 2 KiB
  // acquire must not be handed a too-small recycled buffer...
  Payload odd;
  odd.reserve(1536);
  pool.release(std::move(odd));
  const Payload big = pool.acquire(2048);
  EXPECT_GE(big.capacity(), 2048u);
  EXPECT_EQ(pool.stats().hits, 0u);
  // ...but a 1 KiB acquire can reuse it.
  const Payload small = pool.acquire(1024);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_GE(small.capacity(), 1024u);
}

TEST(PayloadPool, OutOfRangeCapacitiesBypassThePool) {
  PayloadPool pool;
  Payload tiny;
  tiny.reserve(8);  // below kMinBytes
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.stats().returned, 0u);
}

TEST(PayloadPool, ConcurrentAcquireReleaseKeepsAccountsBalanced) {
  PayloadPool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t bytes =
            std::size_t{256} << (static_cast<std::size_t>(i + t) % 6);
        Payload buffer = pool.acquire(bytes);
        ASSERT_GE(buffer.capacity(), bytes);
        buffer.resize(bytes);
        pool.release(std::move(buffer));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const PayloadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.returned + stats.dropped,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(SharedPayloadLifetime, FanOutPayloadOutlivesSenderHandle) {
  // The ownership contract of the zero-copy plane (DESIGN.md §10): root
  // seals one buffer, fans the handle to every receiver, and drops its
  // own handle — possibly before any receiver has read a byte.  Each
  // receiver's in-place view must still see the data; the refcount (and
  // nothing else) keeps the buffer alive.  Run under
  // -DSENKF_SANITIZE=thread this doubles as the data-race gate for
  // cross-thread payload sharing.
  constexpr int kRanks = 6;
  Runtime::run(kRanks, [](Communicator& world) {
    constexpr int kTag = 7;
    constexpr std::size_t kDoubles = 4096;
    if (world.rank() == 0) {
      Packer packer;
      packer.reserve(sizeof(std::uint64_t) + kDoubles * sizeof(double));
      std::vector<double> values(kDoubles);
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = static_cast<double>(i);
      }
      packer.put_vector(values);
      SharedPayload payload = packer.take_shared();
      for (int r = 1; r < world.size(); ++r) {
        world.send_shared(r, kTag, payload);
      }
      payload = SharedPayload();  // sender's handle gone; receivers hold on
    } else {
      const Envelope envelope = world.recv(0, kTag);
      Unpacker unpacker(envelope.payload);
      const std::span<const double> view = unpacker.view<double>();
      ASSERT_EQ(view.size(), kDoubles);
      EXPECT_DOUBLE_EQ(view[1], 1.0);
      EXPECT_DOUBLE_EQ(view[kDoubles - 1],
                       static_cast<double>(kDoubles - 1));
    }
  });
}

}  // namespace
}  // namespace senkf::parcomm
