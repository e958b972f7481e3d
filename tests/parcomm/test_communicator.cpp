#include "parcomm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "parcomm/runtime.hpp"

namespace senkf::parcomm {
namespace {

TEST(Runtime, RunsAllRanks) {
  std::atomic<int> visited{0};
  Runtime::run(6, [&](Communicator& world) {
    EXPECT_EQ(world.size(), 6);
    EXPECT_GE(world.rank(), 0);
    EXPECT_LT(world.rank(), 6);
    ++visited;
  });
  EXPECT_EQ(visited.load(), 6);
}

TEST(Runtime, RethrowsRankException) {
  EXPECT_THROW(Runtime::run(3,
                            [](Communicator& world) {
                              if (world.rank() == 1) {
                                throw NumericError("rank 1 exploded");
                              }
                            }),
               NumericError);
}

TEST(Runtime, FailingRankCancelsPeersBlockedInRecv) {
  // Ranks 1 and 2 wait for a message rank 0 never sends: rank 0's error
  // cancels the run, the waiting ranks fail at once, and the root cause —
  // not their ProtocolErrors — is what run() rethrows.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(Runtime::run(3,
                            [](Communicator& world) {
                              if (world.rank() == 0) {
                                throw NumericError("rank 0 exploded");
                              }
                              (void)world.recv(0, 5);
                            }),
               NumericError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(Runtime, InvalidArgs) {
  EXPECT_THROW(Runtime::run(0, [](Communicator&) {}), InvalidArgument);
  EXPECT_THROW(Runtime::run(2, nullptr), InvalidArgument);
}

TEST(Communicator, PingPong) {
  Runtime::run(2, [](Communicator& world) {
    if (world.rank() == 0) {
      world.send_doubles(1, 10, {1.0, 2.0, 3.0});
      const auto reply = world.recv_doubles(1, 11);
      EXPECT_EQ(reply, (std::vector<double>{6.0}));
    } else {
      const auto data = world.recv_doubles(0, 10);
      world.send_doubles(0, 11,
                         {std::accumulate(data.begin(), data.end(), 0.0)});
    }
  });
}

TEST(Communicator, NonOvertakingPerSourceTag) {
  Runtime::run(2, [](Communicator& world) {
    constexpr int kCount = 50;
    if (world.rank() == 0) {
      for (int i = 0; i < kCount; ++i) {
        world.send_doubles(1, 5, {static_cast<double>(i)});
      }
    } else {
      for (int i = 0; i < kCount; ++i) {
        const auto v = world.recv_doubles(0, 5);
        EXPECT_DOUBLE_EQ(v[0], static_cast<double>(i));
      }
    }
  });
}

TEST(Communicator, WildcardRecvGetsFromAnySender) {
  Runtime::run(4, [](Communicator& world) {
    if (world.rank() == 0) {
      double sum = 0.0;
      for (int i = 0; i < 3; ++i) {
        const Envelope e = world.recv(kAnySource, 1);
        Unpacker u(e.payload);
        sum += u.get<double>();
      }
      EXPECT_DOUBLE_EQ(sum, 1.0 + 2.0 + 3.0);
    } else {
      Packer p;
      p.put(static_cast<double>(world.rank()));
      world.send(0, 1, p.take());
    }
  });
}

TEST(Communicator, SendValidatesArguments) {
  Runtime::run(2, [](Communicator& world) {
    if (world.rank() == 0) {
      EXPECT_THROW(world.send(5, 0, {}), InvalidArgument);
      EXPECT_THROW(world.send(1, -3, {}), InvalidArgument);
    }
  });
}

TEST(Communicator, ManyRanksStress) {
  // A ring exchange across 32 threads exercises mailbox contention.
  Runtime::run(32, [](Communicator& world) {
    const int next = (world.rank() + 1) % world.size();
    const int prev = (world.rank() + world.size() - 1) % world.size();
    world.send_doubles(next, 1, {static_cast<double>(world.rank())});
    const auto got = world.recv_doubles(prev, 1);
    EXPECT_DOUBLE_EQ(got[0], static_cast<double>(prev));
  });
}

}  // namespace
}  // namespace senkf::parcomm
