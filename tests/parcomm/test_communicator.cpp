#include "parcomm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
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

TEST(Communicator, IsendIrecv) {
  Runtime::run(2, [](Communicator& world) {
    if (world.rank() == 0) {
      Request req = world.isend(1, 2, [] {
        Packer p;
        p.put(99.0);
        return p.take();
      }());
      EXPECT_TRUE(req.test());  // buffered send completes immediately
      req.wait();
    } else {
      Request req = world.irecv(0, 2);
      const Envelope e = req.wait();
      EXPECT_DOUBLE_EQ(Unpacker(e.payload).get<double>(), 99.0);
    }
  });
}

TEST(Communicator, IprobeSeesQueuedMessage) {
  Runtime::run(2, [](Communicator& world) {
    if (world.rank() == 0) {
      world.send_doubles(1, 3, {5.0});
      world.barrier();
    } else {
      world.barrier();  // message guaranteed queued
      EXPECT_TRUE(world.iprobe(0, 3));
      EXPECT_FALSE(world.iprobe(0, 4));
      EXPECT_EQ(world.recv_doubles(0, 3), (std::vector<double>{5.0}));
    }
  });
}

TEST(Communicator, BarrierSynchronizes) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  Runtime::run(8, [&](Communicator& world) {
    ++before;
    world.barrier();
    if (before.load() != 8) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Communicator, BarrierReusableManyRounds) {
  Runtime::run(4, [](Communicator& world) {
    for (int round = 0; round < 25; ++round) world.barrier();
  });
}

TEST(Communicator, Broadcast) {
  Runtime::run(5, [](Communicator& world) {
    std::vector<double> data;
    if (world.rank() == 2) data = {1.0, 2.0, 4.0};
    world.broadcast(2, data);
    EXPECT_EQ(data, (std::vector<double>{1.0, 2.0, 4.0}));
  });
}

TEST(Communicator, ScatterVariableChunks) {
  Runtime::run(3, [](Communicator& world) {
    std::vector<std::vector<double>> chunks;
    if (world.rank() == 0) {
      chunks = {{0.0}, {1.0, 1.5}, {2.0, 2.5, 2.75}};
    }
    const auto mine = world.scatter(0, chunks);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(world.rank() + 1));
    EXPECT_DOUBLE_EQ(mine[0], static_cast<double>(world.rank()));
  });
}

TEST(Communicator, GatherVariableChunks) {
  Runtime::run(4, [](Communicator& world) {
    std::vector<double> mine(world.rank() + 1,
                             static_cast<double>(world.rank()));
    const auto all = world.gather(1, mine);
    if (world.rank() == 1) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[r].size(), static_cast<std::size_t>(r + 1));
        EXPECT_DOUBLE_EQ(all[r][0], static_cast<double>(r));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Communicator, AllreduceSumMinMax) {
  Runtime::run(6, [](Communicator& world) {
    const double mine = static_cast<double>(world.rank() + 1);
    EXPECT_DOUBLE_EQ(world.allreduce(mine, Communicator::ReduceOp::kSum),
                     21.0);
    EXPECT_DOUBLE_EQ(world.allreduce(mine, Communicator::ReduceOp::kMin),
                     1.0);
    EXPECT_DOUBLE_EQ(world.allreduce(mine, Communicator::ReduceOp::kMax),
                     6.0);
  });
}

TEST(Communicator, AllreduceVector) {
  Runtime::run(3, [](Communicator& world) {
    const std::vector<double> mine{static_cast<double>(world.rank()), 1.0};
    const auto sum = world.allreduce(mine, Communicator::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 3.0);
    EXPECT_DOUBLE_EQ(sum[1], 3.0);
  });
}

TEST(Communicator, AllreduceTreeCorrectAtEverySize) {
  // The binomial tree's partner arithmetic must hold at powers of two,
  // one above, one below, and size 1 (sums of small integers are exact
  // in floating point, so EXPECT_DOUBLE_EQ is a strict check).
  for (const int size : {1, 2, 3, 4, 5, 7, 8, 9, 13, 16}) {
    Runtime::run(size, [size](Communicator& world) {
      const double mine = static_cast<double>(world.rank() + 1);
      const double expected = static_cast<double>(size * (size + 1)) / 2.0;
      EXPECT_DOUBLE_EQ(world.allreduce(mine, Communicator::ReduceOp::kSum),
                       expected);
      EXPECT_DOUBLE_EQ(world.allreduce(mine, Communicator::ReduceOp::kMax),
                       static_cast<double>(size));
    });
  }
}

TEST(Communicator, SplitByParity) {
  Runtime::run(6, [](Communicator& world) {
    auto sub = world.split(world.rank() % 2, world.rank());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->size(), 3);
    EXPECT_EQ(sub->rank(), world.rank() / 2);
    // Collectives work inside the sub-communicator.
    const double sum = sub->allreduce(1.0, Communicator::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
}

TEST(Communicator, SplitWithUndefinedColorOptsOut) {
  Runtime::run(5, [](Communicator& world) {
    const int color = world.rank() < 2 ? 0 : kUndefinedColor;
    auto sub = world.split(color, 0);
    if (world.rank() < 2) {
      ASSERT_NE(sub, nullptr);
      EXPECT_EQ(sub->size(), 2);
    } else {
      EXPECT_EQ(sub, nullptr);
    }
  });
}

TEST(Communicator, SplitKeyOrdersRanks) {
  Runtime::run(4, [](Communicator& world) {
    // Reverse the order with descending keys.
    auto sub = world.split(0, -world.rank());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->rank(), 3 - world.rank());
  });
}

TEST(Communicator, ConsecutiveSplitsDoNotInterfere) {
  Runtime::run(4, [](Communicator& world) {
    auto a = world.split(world.rank() % 2, 0);
    auto b = world.split(world.rank() / 2, 0);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->size(), 2);
    EXPECT_EQ(b->size(), 2);
    // Traffic in one must not leak into the other.
    if (a->rank() == 0) a->send_doubles(1, 1, {1.0});
    if (a->rank() == 1) {
      EXPECT_EQ(a->recv_doubles(0, 1)[0], 1.0);
    }
    if (b->rank() == 0) b->send_doubles(1, 1, {2.0});
    if (b->rank() == 1) {
      EXPECT_EQ(b->recv_doubles(0, 1)[0], 2.0);
    }
  });
}

TEST(Communicator, NestedSplit) {
  Runtime::run(8, [](Communicator& world) {
    auto half = world.split(world.rank() / 4, world.rank());
    ASSERT_NE(half, nullptr);
    auto quarter = half->split(half->rank() / 2, half->rank());
    ASSERT_NE(quarter, nullptr);
    EXPECT_EQ(quarter->size(), 2);
    const double sum = quarter->allreduce(
        static_cast<double>(world.rank()), Communicator::ReduceOp::kSum);
    // Partners are world ranks {0,1},{2,3},{4,5},{6,7}.
    const int base = (world.rank() / 2) * 2;
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(base + base + 1));
  });
}

TEST(Communicator, SendValidatesArguments) {
  Runtime::run(2, [](Communicator& world) {
    if (world.rank() == 0) {
      EXPECT_THROW(world.send(5, 0, {}), InvalidArgument);
      EXPECT_THROW(world.send(1, -3, {}), InvalidArgument);
    }
    world.barrier();
  });
}

TEST(Communicator, SingleRankCollectivesAreNoops) {
  Runtime::run(1, [](Communicator& world) {
    std::vector<double> data{1.0};
    world.broadcast(0, data);
    EXPECT_EQ(data[0], 1.0);
    world.barrier();
    EXPECT_DOUBLE_EQ(world.allreduce(5.0, Communicator::ReduceOp::kSum), 5.0);
    const auto mine = world.scatter(0, {{3.0}});
    EXPECT_EQ(mine, (std::vector<double>{3.0}));
    const auto all = world.gather(0, {4.0});
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0], (std::vector<double>{4.0}));
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
