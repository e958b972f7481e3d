// Micro-benchmarks of the thread-backed message-passing runtime
// (google-benchmark).
//
// The fan-out benches (BM_Broadcast*, BM_Scatter*, BM_SendBlock) report
// bytes/sec plus two per-message counters derived from the telemetry
// registry: `copies_per_msg` (parcomm.payload_copies — how many times a
// body was memcpy'd) and `allocs_per_msg` (parcomm.pool.miss — how many
// payload buffers were freshly allocated rather than recycled).  The
// DeepCopy/Shared broadcast pair measures the zero-copy plane's win
// directly: same traffic, per-destination deep copies vs one shared
// sealed payload.  `ctest`-style smoke runs and the nightly baseline use
// --benchmark_filter to select these and --benchmark_out for the JSON.
#include <benchmark/benchmark.h>

#include <span>

#include "parcomm/payload_pool.hpp"
#include "parcomm/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace senkf::parcomm;

/// Receivers in every fan-out bench (the paper's n_sdx-scale block
/// scatter plus a rank for the root).
constexpr int kReceivers = 15;

/// Snapshot of the message-plane counters, for per-bench deltas.
struct PlaneCounters {
  std::uint64_t copies;
  std::uint64_t pool_misses;

  static PlaneCounters now() {
    auto& registry = senkf::telemetry::Registry::global();
    return PlaneCounters{registry.counter_value("parcomm.payload_copies"),
                         registry.counter_value("parcomm.pool.miss")};
  }

  void report(benchmark::State& state, std::uint64_t messages) const {
    if (messages == 0) return;
    const PlaneCounters after = now();
    state.counters["copies_per_msg"] = static_cast<double>(
        after.copies - copies) / static_cast<double>(messages);
    state.counters["allocs_per_msg"] = static_cast<double>(
        after.pool_misses - pool_misses) / static_cast<double>(messages);
  }
};

void BM_PingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<double> data(bytes / sizeof(double), 1.0);
  for (auto _ : state) {
    Runtime::run(2, [&](Communicator& world) {
      constexpr int kRounds = 16;
      for (int i = 0; i < kRounds; ++i) {
        if (world.rank() == 0) {
          world.send_doubles(1, 1, data);
          benchmark::DoNotOptimize(world.recv_doubles(1, 2));
        } else {
          benchmark::DoNotOptimize(world.recv_doubles(0, 1));
          world.send_doubles(0, 2, data);
        }
      }
    });
  }
}
BENCHMARK(BM_PingPong)->Arg(64)->Arg(4096)->Arg(262144);

/// Point-to-point block stream at block-message sizes: exact-size packed
/// sends, view-based receives.
void BM_SendBlock(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<double> data(bytes / sizeof(double), 1.0);
  const PlaneCounters before = PlaneCounters::now();
  std::uint64_t messages = 0;
  for (auto _ : state) {
    Runtime::run(2, [&](Communicator& world) {
      constexpr int kRounds = 8;
      if (world.rank() == 0) {
        for (int i = 0; i < kRounds; ++i) {
          Packer packer;
          packer.reserve(sizeof(std::uint64_t) + data.size() * sizeof(double));
          packer.put_vector(data);
          world.send(1, 1, packer.take());
        }
      } else {
        for (int i = 0; i < kRounds; ++i) {
          const Envelope envelope = world.recv(0, 1);
          Unpacker unpacker(envelope.payload);
          benchmark::DoNotOptimize(unpacker.view<double>());
        }
      }
    });
    messages += 8;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * bytes));
  before.report(state, messages);
}
BENCHMARK(BM_SendBlock)->Arg(262144)->Arg(1 << 20)->UseRealTime();

/// The pre-zero-copy fan-out: the root packs the body once per
/// destination and every receiver copies it out again.
void BM_BroadcastDeepCopy(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<double> data(bytes / sizeof(double), 1.0);
  const PlaneCounters before = PlaneCounters::now();
  std::uint64_t messages = 0;
  for (auto _ : state) {
    Runtime::run(kReceivers + 1, [&](Communicator& world) {
      if (world.rank() == 0) {
        for (int r = 1; r < world.size(); ++r) {
          Packer packer;
          packer.reserve(sizeof(std::uint64_t) + data.size() * sizeof(double));
          packer.put_vector(data);
          world.send(r, 1, packer.take());
        }
      } else {
        const Envelope envelope = world.recv(0, 1);
        Unpacker unpacker(envelope.payload);
        benchmark::DoNotOptimize(unpacker.get_vector<double>());
      }
    });
    messages += kReceivers;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * bytes));
  before.report(state, messages);
}
BENCHMARK(BM_BroadcastDeepCopy)->Arg(1 << 20)->UseRealTime();

/// The zero-copy fan-out: pack once, seal once, push the handle to every
/// destination; receivers read the one buffer in place.
void BM_BroadcastShared(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<double> data(bytes / sizeof(double), 1.0);
  const PlaneCounters before = PlaneCounters::now();
  std::uint64_t messages = 0;
  for (auto _ : state) {
    Runtime::run(kReceivers + 1, [&](Communicator& world) {
      if (world.rank() == 0) {
        Packer packer;
        packer.reserve(sizeof(std::uint64_t) + data.size() * sizeof(double));
        packer.put_vector(data);
        const SharedPayload payload = packer.take_shared();
        for (int r = 1; r < world.size(); ++r) {
          world.send_shared(r, 1, payload);
        }
      } else {
        const Envelope envelope = world.recv(0, 1);
        Unpacker unpacker(envelope.payload);
        benchmark::DoNotOptimize(unpacker.view<double>());
      }
    });
    messages += kReceivers;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * bytes));
  before.report(state, messages);
}
BENCHMARK(BM_BroadcastShared)->Arg(1 << 20)->UseRealTime();

/// Block scatter shaped like scatter_bar: the root cuts one big bar into
/// per-destination chunks packed straight from the source rows.
void BM_ScatterBlocks(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t chunk = bytes / sizeof(double);
  const std::vector<double> bar(chunk * kReceivers, 1.0);
  const PlaneCounters before = PlaneCounters::now();
  std::uint64_t messages = 0;
  for (auto _ : state) {
    Runtime::run(kReceivers + 1, [&](Communicator& world) {
      if (world.rank() == 0) {
        for (int r = 1; r < world.size(); ++r) {
          Packer packer;
          packer.reserve(sizeof(std::uint64_t) + chunk * sizeof(double));
          packer.put_span(std::span<const double>(
              bar.data() + static_cast<std::size_t>(r - 1) * chunk, chunk));
          world.send(r, 1, packer.take());
        }
      } else {
        const Envelope envelope = world.recv(0, 1);
        Unpacker unpacker(envelope.payload);
        benchmark::DoNotOptimize(unpacker.view<double>());
      }
    });
    messages += kReceivers;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * bytes));
  before.report(state, messages);
}
BENCHMARK(BM_ScatterBlocks)->Arg(65536)->Arg(1 << 20)->UseRealTime();

/// One round of the block stream used by the trace-overhead pair below.
void stream_blocks(const std::vector<double>& data) {
  Runtime::run(2, [&](Communicator& world) {
    constexpr int kRounds = 8;
    if (world.rank() == 0) {
      for (int i = 0; i < kRounds; ++i) {
        Packer packer;
        packer.reserve(sizeof(std::uint64_t) + data.size() * sizeof(double));
        packer.put_vector(data);
        world.send(1, 1, packer.take());
      }
    } else {
      for (int i = 0; i < kRounds; ++i) {
        const Envelope envelope = world.recv(0, 1);
        Unpacker unpacker(envelope.payload);
        benchmark::DoNotOptimize(unpacker.view<double>());
      }
    }
  });
}

/// Trace-off overhead guard (DESIGN.md §13): the span-context header now
/// rides in every envelope and a disarmed span sits on the send path,
/// but with tracing disarmed (the default) their cost must stay within
/// noise.  compare_bench.py gates this bench against the stored nightly
/// baseline, so a regression in the disarmed path fails the build even
/// though the armed sibling below is expected to be slower.
void BM_SendBlockTraceOff(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<double> data(bytes / sizeof(double), 1.0);
  senkf::telemetry::set_tracing_enabled(false);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    stream_blocks(data);
    messages += 8;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * bytes));
}
BENCHMARK(BM_SendBlockTraceOff)->Arg(262144)->UseRealTime();

/// The armed sibling: same traffic with every message stamped and its
/// flow-origin event recorded, so the armed-vs-disarmed delta — the true
/// tracing cost — is visible in the same JSON.
void BM_SendBlockTraceOn(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<double> data(bytes / sizeof(double), 1.0);
  senkf::telemetry::set_tracing_enabled(true);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    stream_blocks(data);
    messages += 8;
    // Quiescent between runs: drop the recorded events so the armed
    // bench measures recording, not an ever-growing export buffer.
    state.PauseTiming();
    senkf::telemetry::clear_events();
    state.ResumeTiming();
  }
  senkf::telemetry::set_tracing_enabled(false);
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * bytes));
}
BENCHMARK(BM_SendBlockTraceOn)->Arg(262144)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
