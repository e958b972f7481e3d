#include "telemetry/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "telemetry/json_writer.hpp"

namespace senkf::telemetry {

namespace {

using Clock = std::chrono::steady_clock;

// Anchored once at static-init so every thread (and the logger) shares
// one monotonic epoch.
const Clock::time_point g_epoch = Clock::now();

// The SENKF_TRACE arming; every span constructor reads it with one
// relaxed load.
std::atomic<bool> g_tracing{false};

constexpr std::size_t kChunkCapacity = 4096;

// Writer publishes each event with a release store of `count`; readers
// acquire `count` and copy only the published prefix, so a merge can run
// while other threads keep recording.
struct Chunk {
  std::atomic<std::size_t> count{0};
  std::array<TraceEvent, kChunkCapacity> events;
};

struct ThreadBuffer {
  std::int32_t tid = 0;
  std::vector<std::unique_ptr<Chunk>> chunks;  // guarded by g_registry_mutex
  Chunk* current = nullptr;                    // owner thread only
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>>& registry() {
  // Leaked: first use is typically inside main(), which would register
  // this destructor *after* the SENKF_TRACE atexit export handler — and
  // reverse-order exit would then hand the exporter a destroyed vector.
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    b->tid = static_cast<std::int32_t>(registry().size());
    registry().push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local std::int32_t g_thread_rank = -1;

void append(ThreadBuffer& buffer, const TraceEvent& event) {
  Chunk* chunk = buffer.current;
  if (chunk == nullptr ||
      chunk->count.load(std::memory_order_relaxed) == kChunkCapacity) {
    auto fresh = std::make_unique<Chunk>();
    chunk = fresh.get();
    {
      std::lock_guard<std::mutex> lock(g_registry_mutex);
      buffer.chunks.push_back(std::move(fresh));
    }
    buffer.current = chunk;
  }
  const std::size_t index = chunk->count.load(std::memory_order_relaxed);
  chunk->events[index] = event;
  chunk->count.store(index + 1, std::memory_order_release);
}

// SENKF_TRACE is applied before main() and the export (if any) runs via
// atexit, so examples and benches get a trace with zero code changes.
struct EnvInit {
  EnvInit() {
    const TraceEnvConfig config = parse_trace_env(std::getenv("SENKF_TRACE"));
    export_path = config.export_path;
    if (config.enabled) g_tracing.store(true, std::memory_order_relaxed);
    if (!export_path.empty()) {
      std::atexit([] {
        const std::string& path = trace_export_path();
        try {
          write_chrome_trace(path);
          std::cerr << "[senkf trace] wrote " << path << "\n";
        } catch (const std::exception& e) {
          std::cerr << "[senkf trace] export failed: " << e.what() << "\n";
        }
      });
    }
  }
  std::string export_path;
};

EnvInit& env_init() {
  static EnvInit* init = new EnvInit();  // leaked: read by the atexit export
  return *init;
}

// Touch the parser at load time so atexit registration happens even if
// nobody queries the tracer explicitly.
const bool g_env_applied = (env_init(), true);

}  // namespace

const char* category_name(Category category) {
  switch (category) {
    case Category::kRead:
      return "read";
    case Category::kSend:
      return "send";
    case Category::kRecv:
      return "recv";
    case Category::kWait:
      return "wait";
    case Category::kUpdate:
      return "update";
    case Category::kTask:
      return "task";
    case Category::kKernel:
      return "kernel";
    case Category::kOther:
      return "other";
  }
  return "other";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }

void set_tracing_enabled(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

void set_thread_rank(std::int32_t rank) { g_thread_rank = rank; }

std::int32_t thread_rank() { return g_thread_rank; }

std::int32_t thread_index() { return local_buffer().tid; }

void TraceSpan::record() {
  TraceEvent event;
  event.name = name_;
  event.t_start_ns = start_ns_;
  event.t_end_ns = now_ns();
  event.rank = g_thread_rank;
  event.stage = stage_;
  event.flow_id = flow_id_;
  event.category = category_;
  event.flow = flow_;
  append(local_buffer(), event);
}

std::uint64_t alloc_flow_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void record_event(const TraceEvent& event) {
  TraceEvent copy = event;
  if (copy.rank == -1) copy.rank = g_thread_rank;
  append(local_buffer(), copy);
}

std::vector<TraceEvent> collect_events() {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : registry()) {
    for (const auto& chunk : buffer->chunks) {
      const std::size_t count = chunk->count.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < count; ++i) out.push_back(chunk->events[i]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t_start_ns < b.t_start_ns;
                   });
  return out;
}

void clear_events() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : registry()) {
    buffer->chunks.clear();
    buffer->current = nullptr;
  }
}

void write_chrome_trace(std::ostream& out) {
  struct Snapshot {
    TraceEvent event;
    std::int32_t tid;
  };
  std::vector<Snapshot> events;
  std::vector<std::int32_t> ranks;
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& buffer : registry()) {
      for (const auto& chunk : buffer->chunks) {
        const std::size_t count =
            chunk->count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < count; ++i) {
          events.push_back({chunk->events[i], buffer->tid});
          ranks.push_back(chunk->events[i].rank);
        }
      }
    }
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());

  JsonWriter json(out);
  json.begin_object().field("displayTimeUnit", "ms");
  json.key("traceEvents").begin_array();
  // Process-name metadata: one Perfetto row per rank (pid = rank + 1,
  // so the unattributed rank -1 lands on pid 0).
  for (const std::int32_t rank : ranks) {
    json.begin_object()
        .field("ph", "M")
        .field("name", "process_name")
        .field("pid", rank + 1)
        .field("tid", 0);
    json.key("args").begin_object();
    json.field("name", rank < 0 ? std::string("unattributed")
                                : "rank " + std::to_string(rank));
    json.end_object().end_object();
  }
  for (const auto& [event, tid] : events) {
    const double ts_us = static_cast<double>(event.t_start_ns) / 1e3;
    const double dur_us =
        static_cast<double>(event.t_end_ns - event.t_start_ns) / 1e3;
    json.begin_object()
        .field("ph", "X")
        .field("name", event.name)
        .field("cat", category_name(event.category))
        .field("ts", ts_us)
        .field("dur", dur_us)
        .field("pid", event.rank + 1)
        .field("tid", tid);
    if (event.stage >= 0) {
      json.key("args").begin_object().field("stage", event.stage).end_object();
    }
    json.end_object();
    if (event.flow_id != 0 && event.flow != FlowDir::kNone) {
      // Flow events share name/cat across all hops of an id so Chrome and
      // Perfetto join them into one arrow chain.  The start binds at the
      // sender span's begin (the message existed from then on); steps and
      // the finish bind at span end — the instant the message was taken
      // out of the mailbox / released the wait.  bp:"e" makes the finish
      // attach to the enclosing slice rather than the next one.
      const bool start = event.flow == FlowDir::kOut;
      const double flow_ts_us =
          static_cast<double>(start ? event.t_start_ns : event.t_end_ns) / 1e3;
      json.begin_object()
          .field("ph", start ? "s" : (event.flow == FlowDir::kStep ? "t" : "f"))
          .field("name", "parcomm")
          .field("cat", "flow")
          .field("id", event.flow_id)
          .field("ts", flow_ts_us)
          .field("pid", event.rank + 1)
          .field("tid", tid);
      if (event.flow == FlowDir::kIn) json.field("bp", "e");
      json.end_object();
    }
  }
  json.end_array().end_object();
}

void write_chrome_trace(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    throw std::runtime_error("write_chrome_trace: cannot open " + path);
  }
  write_chrome_trace(file);
  file << "\n";
  if (!file) {
    throw std::runtime_error("write_chrome_trace: short write to " + path);
  }
}

TraceEnvConfig parse_trace_env(const char* value) {
  TraceEnvConfig config;
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "off" || v == "0" || v == "false") return config;
  config.enabled = true;
  config.export_path =
      (v == "on" || v == "1" || v == "true") ? "senkf_trace.json" : v;
  return config;
}

const std::string& trace_export_path() { return env_init().export_path; }

}  // namespace senkf::telemetry
