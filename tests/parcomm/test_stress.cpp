// Stress and property tests of the message-passing runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "parcomm/runtime.hpp"
#include "support/rng.hpp"

namespace senkf::parcomm {
namespace {

TEST(Stress, ManyToOneMessageStormPreservesContent) {
  // 15 senders × 40 messages each into one sink; every payload must
  // arrive exactly once (checked via a checksum of unique values).
  constexpr int kSenders = 15;
  constexpr int kPerSender = 40;
  Runtime::run(kSenders + 1, [](Communicator& world) {
    if (world.rank() == 0) {
      double sum = 0.0;
      for (int i = 0; i < kSenders * kPerSender; ++i) {
        sum += world.recv_doubles(kAnySource, 1)[0];
      }
      // Σ over senders s, messages m of (s·1000 + m).
      double expected = 0.0;
      for (int s = 1; s <= kSenders; ++s) {
        for (int m = 0; m < kPerSender; ++m) expected += s * 1000.0 + m;
      }
      EXPECT_DOUBLE_EQ(sum, expected);
    } else {
      for (int m = 0; m < kPerSender; ++m) {
        world.send_doubles(0, 1, {world.rank() * 1000.0 + m});
      }
    }
  });
}

TEST(Stress, InterleavedTagsNeverCrossMatch) {
  // Two logical streams on distinct tags between the same pair: each
  // stream must stay ordered and uncontaminated.
  Runtime::run(2, [](Communicator& world) {
    constexpr int kCount = 64;
    if (world.rank() == 0) {
      Rng rng(1);
      int sent_a = 0, sent_b = 0;
      while (sent_a < kCount || sent_b < kCount) {
        const bool pick_a =
            sent_b >= kCount || (sent_a < kCount && rng.uniform() < 0.5);
        if (pick_a) {
          world.send_doubles(1, 10, {100.0 + sent_a++});
        } else {
          world.send_doubles(1, 20, {200.0 + sent_b++});
        }
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(world.recv_doubles(0, 10)[0], 100.0 + i);
      }
      for (int i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(world.recv_doubles(0, 20)[0], 200.0 + i);
      }
    }
  });
}

TEST(Stress, LargePayloadsSurviveRoundTrip) {
  Runtime::run(2, [](Communicator& world) {
    std::vector<double> big(1 << 16);
    std::iota(big.begin(), big.end(), 0.0);
    if (world.rank() == 0) {
      world.send_doubles(1, 1, big);
      const auto back = world.recv_doubles(1, 2);
      EXPECT_EQ(back, big);
    } else {
      auto data = world.recv_doubles(0, 1);
      world.send_doubles(0, 2, data);
    }
  });
}

TEST(Stress, ConcurrentRuntimesDoNotInterfere) {
  // Two Runtime::run universes in different threads: buses are fully
  // isolated, so each ring only ever sees its own universe's value.
  std::atomic<int> done{0};
  const auto ring = [&](double universe) {
    Runtime::run(4, [&, universe](Communicator& world) {
      const int next = (world.rank() + 1) % world.size();
      const int prev = (world.rank() + world.size() - 1) % world.size();
      for (int round = 0; round < 50; ++round) {
        world.send_doubles(next, 1, {universe});
        EXPECT_EQ(world.recv_doubles(prev, 1),
                  (std::vector<double>{universe}));
      }
      ++done;
    });
  };
  std::thread other([&] { ring(2.0); });
  ring(1.0);
  other.join();
  EXPECT_EQ(done.load(), 8);
}

}  // namespace
}  // namespace senkf::parcomm
