#include "telemetry/liveops/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include <csignal>
#include <sys/time.h>

#include "telemetry/json_writer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/shutdown.hpp"
#include "telemetry/trace.hpp"

namespace senkf::telemetry::liveops {

namespace {

// ---- Lock-free sample ring ------------------------------------------
//
// Producers (the SIGPROF handler, the wall sampler) claim a sequence
// number with one fetch_add and publish the slot with a release store
// of `ready = seq + 1`; the drain validates `ready` before and after
// copying, so an overwritten slot is counted dropped, never misread.
// Statically allocated: the signal handler must not be the first
// toucher of anything that allocates.

constexpr std::size_t kRingCapacity = 16384;

struct RingSlot {
  std::atomic<std::uint64_t> ready{0};  ///< seq + 1 once sample seq landed
  std::atomic<const char*> frames[kPhaseStackDepth] = {};
  std::atomic<int> depth{0};
  std::atomic<std::int32_t> rank{-1};
};

RingSlot g_ring[kRingCapacity];
std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::uint64_t> g_torn{0};
std::atomic<std::uint64_t> g_dropped{0};

// Async-signal-safe: atomics only, no allocation, no locks.
void commit_sample(const PhaseStackView& view) {
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_acq_rel);
  RingSlot& slot = g_ring[seq % kRingCapacity];
  slot.ready.store(0, std::memory_order_release);
  int depth = view.depth;
  if (depth > kPhaseStackDepth) depth = kPhaseStackDepth;
  for (int i = 0; i < depth; ++i) {
    slot.frames[i].store(view.frames[i].name, std::memory_order_relaxed);
  }
  slot.depth.store(depth, std::memory_order_relaxed);
  slot.rank.store(view.rank, std::memory_order_relaxed);
  slot.ready.store(seq + 1, std::memory_order_release);
}

void sigprof_handler(int) {
  PhaseStackView view;
  if (!read_own_phase_stack(&view)) {
    g_torn.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (view.depth <= 0) return;  // no active phase: nothing to attribute
  commit_sample(view);
}

// ---- Aggregation + lifecycle (mutex-guarded, never in the handler) --

using AggKey = std::pair<std::string, std::int32_t>;

struct ProfilerState {
  std::mutex mutex;
  std::uint64_t cursor = 0;  ///< next seq to drain
  std::map<AggKey, std::uint64_t> buckets;
  std::uint64_t aggregated = 0;
  bool running = false;
  bool ever_started = false;
  bool wall = false;
  int hz = 0;
  std::thread wall_thread;
  struct sigaction old_action = {};
  bool handler_installed = false;
  std::atomic<bool> stop_requested{false};
};

ProfilerState& state() {
  static auto* s = new ProfilerState();  // leaked: drained at atexit
  return *s;
}

// Caller holds state().mutex.
void drain_locked(ProfilerState& s) {
  const std::uint64_t head = g_seq.load(std::memory_order_acquire);
  if (head > s.cursor + kRingCapacity) {
    // Producers lapped the drain; the overwritten prefix is gone.
    g_dropped.fetch_add(head - kRingCapacity - s.cursor,
                        std::memory_order_relaxed);
    s.cursor = head - kRingCapacity;
  }
  for (; s.cursor < head; ++s.cursor) {
    RingSlot& slot = g_ring[s.cursor % kRingCapacity];
    if (slot.ready.load(std::memory_order_acquire) != s.cursor + 1) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    int depth = slot.depth.load(std::memory_order_relaxed);
    if (depth < 0) depth = 0;
    if (depth > kPhaseStackDepth) depth = kPhaseStackDepth;
    std::string stack;
    for (int i = 0; i < depth; ++i) {
      const char* name = slot.frames[i].load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      if (!stack.empty()) stack.push_back(';');
      stack += name;
    }
    const std::int32_t rank = slot.rank.load(std::memory_order_relaxed);
    // A producer may have overwritten the slot mid-copy; the frame
    // pointers stayed valid (string literals) but the combination is
    // torn — recheck and discard.
    if (slot.ready.load(std::memory_order_acquire) != s.cursor + 1) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (stack.empty()) continue;
    ++s.buckets[AggKey(std::move(stack), rank)];
    ++s.aggregated;
  }
}

void wall_loop(int hz) {
  const auto period = std::chrono::nanoseconds(1000000000LL / hz);
  ProfilerState& s = state();
  while (!s.stop_requested.load(std::memory_order_relaxed)) {
    const std::size_t stacks = phase_stack_count();
    for (std::size_t i = 0; i < stacks; ++i) {
      PhaseStackView view;
      if (!read_phase_stack(i, &view)) {
        g_torn.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (view.depth <= 0) continue;
      commit_sample(view);
    }
    std::this_thread::sleep_for(period);
  }
}

// The registry's sample counters, so /metrics shows profiler liveness
// without a report round-trip.
void publish_counters_locked(ProfilerState& s) {
  static Counter& samples = Registry::global().counter("senkf.profile.samples");
  static Counter& dropped = Registry::global().counter("senkf.profile.dropped");
  const std::uint64_t agg = s.aggregated;
  const std::uint64_t drop = g_dropped.load(std::memory_order_relaxed);
  const std::uint64_t have = samples.value();
  const std::uint64_t have_drop = dropped.value();
  if (agg > have) samples.add(agg - have);
  if (drop > have_drop) dropped.add(drop - have_drop);
}

}  // namespace

ProfileEnvConfig parse_profile_env(const char* value) {
  ProfileEnvConfig config;
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "off" || v == "0" || v == "false") return config;
  config.enabled = true;
  std::string rate = v;
  if (v == "on" || v == "1" || v == "true") {
    rate.clear();
  } else if (v == "wall") {
    config.wall = true;
    rate.clear();
  } else if (v.rfind("wall:", 0) == 0) {
    config.wall = true;
    rate = v.substr(5);
  } else if (v.rfind("cpu:", 0) == 0) {
    rate = v.substr(4);
  }
  if (!rate.empty()) {
    char* end = nullptr;
    const long hz = std::strtol(rate.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || hz <= 0) {
      config.enabled = false;  // unparsable rate: stay off, never crash
      return config;
    }
    config.hz = static_cast<int>(std::clamp<long>(hz, 1, 1000));
  }
  return config;
}

void start_profiler(int hz, bool wall) {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.running) return;
  hz = std::clamp(hz, 1, 1000);
  s.hz = hz;
  s.wall = wall;
  s.stop_requested.store(false, std::memory_order_relaxed);
  s.ever_started = true;
  shutdown_at_exit();  // stopped before the atexit exporters run
  set_profile_hooks_enabled(true);
  s.running = true;
  if (wall) {
    s.wall_thread = std::thread(wall_loop, hz);
  } else {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = sigprof_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &action, &s.old_action);
    s.handler_installed = true;
    const long interval_us = 1000000L / hz;
    struct itimerval timer;
    timer.it_interval.tv_sec = interval_us / 1000000L;
    timer.it_interval.tv_usec = interval_us % 1000000L;
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);
  }
}

void stop_profiler() {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  // shutdown() stops every subsystem; one that never ran must leave the
  // registry without senkf.profile.* counters.
  if (!s.ever_started) return;
  if (s.running) {
    s.running = false;
    set_profile_hooks_enabled(false);
    if (s.wall) {
      s.stop_requested.store(true, std::memory_order_relaxed);
      if (s.wall_thread.joinable()) s.wall_thread.join();
    } else {
      struct itimerval timer;
      std::memset(&timer, 0, sizeof(timer));
      setitimer(ITIMER_PROF, &timer, nullptr);
      if (s.handler_installed) {
        sigaction(SIGPROF, &s.old_action, nullptr);
        s.handler_installed = false;
      }
    }
  }
  drain_locked(s);
  publish_counters_locked(s);
}

bool profiler_running() {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.running;
}

bool ensure_profiler_started() {
  static const ProfileEnvConfig config =
      parse_profile_env(std::getenv("SENKF_PROFILE"));
  if (config.enabled && !profiler_running()) {
    start_profiler(config.hz, config.wall);
  }
  return profiler_running();
}

ProfileStats profiler_stats() {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_locked(s);
  publish_counters_locked(s);
  ProfileStats stats;
  stats.ever_started = s.ever_started;
  stats.running = s.running;
  stats.wall = s.wall;
  stats.hz = s.hz;
  stats.samples = s.aggregated;
  stats.dropped = g_dropped.load(std::memory_order_relaxed);
  stats.torn = g_torn.load(std::memory_order_relaxed);
  return stats;
}

std::vector<ProfileBucket> profile_buckets() {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_locked(s);
  publish_counters_locked(s);
  std::vector<ProfileBucket> out;
  out.reserve(s.buckets.size());
  for (const auto& [key, count] : s.buckets) {
    ProfileBucket bucket;
    bucket.stack = key.first;
    bucket.rank = key.second;
    bucket.count = count;
    out.push_back(std::move(bucket));
  }
  return out;
}

std::string render_collapsed() {
  std::ostringstream out;
  for (const ProfileBucket& b : profile_buckets()) {
    out << b.stack << " " << b.count << "\n";
  }
  return out.str();
}

std::string profile_section_json() {
  {
    // Checked before profiler_stats(), which publishes the counters.
    ProfilerState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.ever_started) return "{\"enabled\":false}";
  }
  const ProfileStats stats = profiler_stats();
  const std::vector<ProfileBucket> buckets = profile_buckets();

  // Per-phase totals attribute each sample to its innermost frame.
  std::map<std::string, std::uint64_t> phases;
  for (const ProfileBucket& b : buckets) {
    const std::size_t sep = b.stack.rfind(';');
    phases[sep == std::string::npos ? b.stack : b.stack.substr(sep + 1)] +=
        b.count;
  }
  std::vector<const ProfileBucket*> top;
  top.reserve(buckets.size());
  for (const ProfileBucket& b : buckets) top.push_back(&b);
  std::stable_sort(top.begin(), top.end(),
                   [](const ProfileBucket* a, const ProfileBucket* b) {
                     return a->count > b->count;
                   });
  if (top.size() > 50) top.resize(50);

  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object()
      .field("enabled", true)
      .field("mode", stats.wall ? "wall" : "cpu")
      .field("hz", static_cast<std::int64_t>(stats.hz))
      .field("samples", stats.samples)
      .field("dropped", stats.dropped)
      .field("torn", stats.torn);
  json.key("phases").begin_object();
  for (const auto& [name, count] : phases) json.field(name, count);
  json.end_object();
  json.key("top").begin_array();
  for (const ProfileBucket* b : top) {
    json.begin_object()
        .field("stack", b->stack)
        .field("rank", b->rank)
        .field("count", b->count)
        .end_object();
  }
  json.end_array();
  json.end_object();
  return out.str();
}

void clear_profile() {
  ProfilerState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_locked(s);  // advance the cursor past anything already ringed
  s.buckets.clear();
  s.aggregated = 0;
}

}  // namespace senkf::telemetry::liveops
