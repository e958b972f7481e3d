// End-to-end numeric-plane benchmark program.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>]
//
// One process runs one workload as a closed loop: a single caller starts
// an analysis (serial reference, L-, P- or S-EnKF) or a cycled run,
// waits for it to return, checks it, then starts the next.
//
// --trace 0 measures the end-to-end metrics with tracing off.
// --trace 1 is the separate traced run: it reads the per-layer numbers
// from the library's public counters, SenkfStats, a timing store
// decorator, the causal trace's critical path and bench-side replays of
// the localization, local-analysis and cycle layers.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Lines above it are a human-readable report of the same numbers.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "enkf/diagnostics.hpp"
#include "enkf/senkf.hpp"
#include "layers.hpp"
#include "linalg/kernels/dispatch.hpp"
#include "obs/local_obs_cache.hpp"
#include "scenario.hpp"
#include "support/stopwatch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "timed_store.hpp"

namespace {

using e2e::Engine;
using e2e::Scenario;
using senkf::Stopwatch;
using Ensemble = std::vector<senkf::grid::Field>;

// Process-wide knobs that change what a run measures.  They are read
// once inside the library, so a stray value would silently skew every
// number in the process.
constexpr const char* kRefusedEnv[] = {
    "SENKF_TRACE",   "SENKF_PROFILE", "SENKF_HTTP",
    "SENKF_WATCHDOG", "SENKF_REPORT", "SENKF_LOCOBS_CACHE"};

// Minimum samples per activity, whatever --seconds says: a median needs
// a few, and the S-EnKF tail needs ten beyond its percentile.
constexpr std::size_t kMinEngineCalls = 3;
constexpr std::size_t kTailBeyond = 10;
constexpr std::size_t kMinSenkfCalls = kTailBeyond + 1;
// The tail percentile stops climbing at p80: higher percentiles of short
// calls on a shared host move run to run with the host's load, while p80
// of many calls holds still.  Below 55 calls the ten-beyond rule binds.
constexpr double kTailPercentileCap = 0.8;
// Set-ups repeat until this much time is spent (within the bounds below)
// so cheap workloads take a median over more of them.
constexpr double kSetupSeconds = 2.5;
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr std::size_t kMinCycleCalls = 3;
// Stop adding samples past this, so a slow host still exits in time.
constexpr double kHardStopSeconds = 140.0;
constexpr double kLayerSumTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path data_dir = ".bench_build/e2ebench-data";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why
            << "\nusage: e2e_bench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--data-dir <dir>]\nworkloads:";
  for (const std::string& name : e2e::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(flag, value);
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = parse_number<double>(flag, value);
      have[2] = args.seconds > 0.0;
      if (!have[2]) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
  }
#endif
  return "unknown";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile, up to kTailPercentileCap, with at least
/// kTailBeyond samples above it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const auto capped = static_cast<std::size_t>(
      std::ceil(kTailPercentileCap * static_cast<double>(n)));
  const std::size_t index =
      n > kTailBeyond ? std::min(n - kTailBeyond, capped) - 1 : 0;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Hands memory freed by the previous phase back to the kernel, so
/// peak_rss_mb is set by what one phase holds live rather than by what
/// the allocator kept cached from an earlier one.
void release_free_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

bool identical(const Ensemble& a, const Ensemble& b) {
  return a.size() == b.size() && senkf::enkf::max_ensemble_difference(a, b) == 0.0;
}

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }

  void print_table(std::ostream& out) const {
    for (const Row& row : rows_) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-26s %16.9g %s", row.name.c_str(),
                    row.value, row.unit);
      out << line << '\n';
    }
  }

  std::string json() const {
    std::string text = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(rows_[i].value) ? rows_[i].value : 0.0);
      text += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return text + "}";
  }

  bool all_finite() const {
    return std::all_of(rows_.begin(), rows_.end(), [](const Row& row) {
      return std::isfinite(row.value);
    });
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

/// Counts attempted and failed operations; a failure is a throw or a
/// failed correctness check.
class Verdict {
 public:
  void pass() { ++attempted_; }
  void fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    std::cerr << "e2e_bench: FAILED: " << what << '\n';
  }
  void check(bool ok, const std::string& what) { ok ? pass() : fail(what); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Run {
  const Args& args;
  const e2e::WorkloadSpec& spec;
  Stopwatch process;
  std::unique_ptr<Scenario> scenario;
  std::optional<Ensemble> gold;  ///< serial reference of this scenario
  Verdict verdict;

  /// Checks one engine's output against the serial reference.  The
  /// first serial output becomes the reference, after the skill check:
  /// the analysis mean must be closer to the truth than the background.
  void check_analysis(Engine engine, Ensemble output) {
    const std::string what = std::string(e2e::engine_name(engine)) + " on " +
                             spec.name;
    if (!gold) {
      const auto& truth = scenario->truth_and_background.truth;
      const double before = senkf::enkf::mean_field_rmse(
          scenario->truth_and_background.members, truth);
      const double after = senkf::enkf::mean_field_rmse(output, truth);
      verdict.check(engine == Engine::kSerial && after < before,
                    what + ": analysis RMSE " + std::to_string(after) +
                        " not below background " + std::to_string(before));
      gold = std::move(output);
      return;
    }
    verdict.check(identical(output, *gold),
                  what + ": not bit-identical to serial_enkf");
  }

  /// One timed analysis call; returns its wall seconds.
  double timed_analysis(Engine engine, const senkf::enkf::EnsembleStore& store,
                        senkf::enkf::SenkfStats* stats = nullptr) {
    const Stopwatch watch;
    try {
      Ensemble output = e2e::run_engine(engine, *scenario, store, stats);
      const double seconds = watch.elapsed_seconds();
      check_analysis(engine, std::move(output));
      return seconds;
    } catch (const std::exception& error) {
      verdict.fail(std::string(e2e::engine_name(engine)) +
                   " threw: " + error.what());
      return watch.elapsed_seconds();
    }
  }

  bool past_hard_stop() const {
    return process.elapsed_seconds() > kHardStopSeconds;
  }
};

/// Builds the scenario (cold localization cache each time) between
/// `min_reps` and `max_reps` times, stopping once kSetupSeconds are
/// spent, and returns the median seconds; the last build is kept.
double set_up(Run& run, int min_reps, int max_reps) {
  std::vector<double> seconds;
  double total = 0.0;
  for (int rep = 0;
       rep < min_reps || (rep < max_reps && total < kSetupSeconds); ++rep) {
    run.scenario.reset();
    run.gold.reset();
    senkf::obs::clear_localization_cache();
    release_free_memory();
    const Stopwatch watch;
    run.scenario =
        std::make_unique<Scenario>(run.spec, run.args.seed, run.args.data_dir);
    // Warm-up: one S-EnKF call pays the cold observation localization,
    // thread-pool and arena start-up before anything is timed.
    e2e::run_engine(Engine::kSenkf, *run.scenario, *run.scenario->store);
    seconds.push_back(watch.elapsed_seconds());
    total += seconds.back();
  }
  std::cout << "# set-ups: " << seconds.size() << '\n';
  return median(seconds);
}

/// Cycled calls for `budget` seconds (at least `min_calls`); every call
/// must reproduce the first, and the bench-side replay must too.
std::vector<double> measure_cycles(Run& run, double budget,
                                   std::size_t min_calls,
                                   e2e::CycleReplay* replay_out) {
  // Each cycle localizes a fresh network; drop the analysis phase's
  // entries first so the two working sets never sit in memory together.
  senkf::obs::clear_localization_cache();
  release_free_memory();
  std::vector<double> per_cycle;
  std::optional<Ensemble> reference;
  const Stopwatch phase;
  while ((phase.elapsed_seconds() < budget ||
          per_cycle.size() < min_calls) &&
         !(run.past_hard_stop() && !per_cycle.empty())) {
    const Stopwatch watch;
    try {
      senkf::enkf::CycleResult result = e2e::run_cycles(*run.scenario);
      per_cycle.push_back(watch.elapsed_seconds() /
                          static_cast<double>(run.spec.cycles));
      if (!reference) {
        reference = std::move(result.final_analysis);
        run.verdict.pass();
      } else {
        run.verdict.check(identical(result.final_analysis, *reference),
                          "run_cycled_assimilation not reproducible");
      }
    } catch (const std::exception& error) {
      run.verdict.fail(std::string("run_cycled_assimilation threw: ") +
                       error.what());
      per_cycle.push_back(watch.elapsed_seconds());
    }
  }
  try {
    e2e::CycleReplay replay = e2e::replay_cycles(*run.scenario);
    run.verdict.check(reference && identical(replay.final_analysis, *reference),
                      "cycle replay differs from run_cycled_assimilation");
    if (replay_out != nullptr) *replay_out = std::move(replay);
  } catch (const std::exception& error) {
    run.verdict.fail(std::string("cycle replay threw: ") + error.what());
  }
  return per_cycle;
}

void end_to_end(Run& run, Metrics& metrics) {
  const double setup_s = set_up(run, kMinSetups, kMaxSetups);
  const double first_call_s = run.process.elapsed_seconds();
  const e2e::WorkloadSpec& spec = run.spec;

  // Closed loop over the four engines: always call the one furthest
  // behind its time share (serial first, so its output becomes the
  // reference before anything is compared to it).
  const double engine_budget =
      run.args.seconds * (1.0 - spec.cycle_share);
  std::map<Engine, std::vector<double>> samples;
  std::map<Engine, double> spent;
  const Stopwatch phase;
  for (;;) {
    const bool over = phase.elapsed_seconds() >= engine_budget ||
                      run.past_hard_stop();
    std::optional<Engine> pick;
    double best = 0.0;
    for (const Engine engine : e2e::kEngines) {
      const std::size_t floor =
          engine == Engine::kSenkf ? kMinSenkfCalls : kMinEngineCalls;
      if (over && (samples[engine].size() >= floor || run.past_hard_stop())) {
        continue;
      }
      const double score =
          spent[engine] / spec.engine_share[static_cast<int>(engine)];
      if (!pick || score < best) {
        pick = engine;
        best = score;
      }
    }
    if (!pick) break;
    const double seconds =
        run.timed_analysis(*pick, *run.scenario->store);
    samples[*pick].push_back(seconds);
    spent[*pick] += seconds;
  }

  const std::vector<double> cycles =
      measure_cycles(run, run.args.seconds * spec.cycle_share,
                     kMinCycleCalls, nullptr);

  const Tail tail = tail_of(samples[Engine::kSenkf]);
  for (const Engine engine : e2e::kEngines) {
    metrics.add(std::string("analysis_s.") + e2e::engine_name(engine),
                median(samples[engine]), "s");
  }
  metrics.add("analysis_tail_s.senkf", tail.value, "s");
  metrics.add("cycle_s", median(cycles), "s");
  metrics.add("setup_s", setup_s, "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");

  const auto spread = [](const char* name, std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0) return;
    std::cout << "# " << name << ": n=" << n << " p10=" << values[n / 10]
              << " p25=" << values[n / 4] << " p50=" << median(values)
              << " p75=" << values[3 * n / 4]
              << " p90=" << values[9 * n / 10] << " s\n";
  };
  for (const Engine engine : e2e::kEngines) {
    spread(e2e::engine_name(engine), samples[engine]);
  }
  spread("cycle (per cycle)", cycles);
  std::cout << "# analysis_tail_s.senkf is p" << tail.percentile << " of "
            << tail.samples << " S-EnKF calls (at least " << kTailBeyond
            << " beyond it)\n"
            << "# process start to first timed call: " << first_call_s
            << " s\n";
}

void per_layer(Run& run, Metrics& metrics) {
  namespace tm = senkf::telemetry;
  set_up(run, 1, 1);
  Scenario& scenario = *run.scenario;
  const e2e::TimedEnsembleStore timed(*scenario.store);
  tm::Registry& registry = tm::Registry::global();
  const auto counter = [&registry](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };

  run.timed_analysis(Engine::kSerial, *scenario.store);  // the reference

  // Traced rounds: S-EnKF untraced (the overhead baseline), then S-, P-
  // and L-EnKF traced through the timing store.
  std::map<std::string, std::vector<double>> rounds;
  const auto record = [&rounds](const std::string& name, double value) {
    rounds[name].push_back(value);
  };
  std::vector<double> untraced, traced;
  double worst_sum_error = 0.0;
  // Registry counters read as per-round deltas; each engine's own
  // counters only move during its call.
  constexpr const char* kRoundCounters[] = {
      "parcomm.messages", "parcomm.bytes",      "parcomm.send_ns",
      "parcomm.recv_wait_ns", "parcomm.payload_copies", "penkf.read_ns",
      "penkf.update_ns",  "lenkf.read_ns",      "lenkf.send_ns",
      "lenkf.update_ns"};
  std::map<std::string, double> before;
  const auto delta = [&](const char* name) {
    return counter(name) - before[name];
  };
  const auto traced_call = [&](Engine engine,
                               senkf::enkf::SenkfStats* stats) {
    tm::clear_events();
    tm::set_tracing_enabled(true);
    const std::int64_t start = tm::now_ns();
    const double seconds = run.timed_analysis(engine, timed, stats);
    const std::int64_t end = tm::now_ns();
    tm::set_tracing_enabled(false);
    return std::tuple{seconds, start, end};
  };
  const double budget = run.args.seconds * (1.0 - run.spec.cycle_share);
  const Stopwatch phase;
  while ((phase.elapsed_seconds() < budget || traced.size() < kMinEngineCalls) &&
         !(run.past_hard_stop() && !traced.empty())) {
    untraced.push_back(run.timed_analysis(Engine::kSenkf, *scenario.store));

    timed.reset();
    for (const char* name : kRoundCounters) before[name] = counter(name);
    senkf::enkf::SenkfStats stats;
    const auto [seconds, start, end] = traced_call(Engine::kSenkf, &stats);
    traced.push_back(seconds);
    const e2e::PathSplit path = e2e::critical_path_of_call(start, end);
    traced_call(Engine::kPenkf, nullptr);
    traced_call(Engine::kLenkf, nullptr);
    tm::clear_events();

    worst_sum_error = std::max(worst_sum_error, path.sum_error());
    run.verdict.check(path.valid && path.sum_error() <= kLayerSumTolerance,
                      "critical-path partition off the S-EnKF wall by " +
                          std::to_string(100.0 * path.sum_error()) + "%");
    record("cp.compute_s", path.compute_s);
    record("cp.disk_s", path.disk_s);
    record("cp.comm_blocked_s", path.comm_blocked_s);
    record("cp.other_s", path.other_s);
    record("cp.untracked_s", path.untracked_s);
    record("cp.untracked_share", path.untracked_s / path.wall_s);
    record("cp.message_hops", static_cast<double>(path.message_hops));
    record("cp.missing_edges", static_cast<double>(path.missing_edges));
    record("senkf.io_read_s", stats.io_read_seconds);
    record("senkf.io_send_s", stats.io_send_seconds);
    record("senkf.comp_wait_s", stats.comp_wait_seconds);
    record("senkf.comp_update_s", stats.comp_update_seconds);
    record("senkf.read_skew", stats.read_skew);
    record("penkf.read_s", delta("penkf.read_ns") / 1e9);
    record("penkf.update_s", delta("penkf.update_ns") / 1e9);
    record("lenkf.read_s", delta("lenkf.read_ns") / 1e9);
    record("lenkf.send_s", delta("lenkf.send_ns") / 1e9);
    record("lenkf.update_s", delta("lenkf.update_ns") / 1e9);

    const auto bar = timed.read_bar_totals();
    const auto block = timed.read_block_totals();
    const auto member = timed.load_member_totals();
    record("store.read_bar.calls", static_cast<double>(bar.calls));
    record("store.read_bar.s", bar.seconds);
    record("store.read_block.calls", static_cast<double>(block.calls));
    record("store.read_block.s", block.seconds);
    record("store.load_member.s", member.seconds);
    record("store.bytes",
           static_cast<double>(bar.bytes + block.bytes + member.bytes));
    record("store.segments", static_cast<double>(timed.base_segments()));
    record("parcomm.messages", delta("parcomm.messages"));
    record("parcomm.bytes", delta("parcomm.bytes"));
    record("parcomm.send_s", delta("parcomm.send_ns") / 1e9);
    record("parcomm.recv_wait_s", delta("parcomm.recv_wait_ns") / 1e9);
    record("parcomm.payload_copies", delta("parcomm.payload_copies"));
  }

  // Cold localization as the engines meet it, then the replay of it.
  senkf::obs::clear_localization_cache();
  const double misses0 = counter("analysis.localization.misses");
  run.timed_analysis(Engine::kSenkf, *scenario.store);
  const double misses = counter("analysis.localization.misses") - misses0;
  const e2e::LocalizationReplay localization =
      e2e::replay_localization(scenario);
  const e2e::PatchReplay patches = e2e::replay_local_analysis(scenario);
  e2e::CycleReplay cycle;
  measure_cycles(run, 0.0, 1, &cycle);

  const std::pair<const char*, const char*> layer_units[] = {
      {"store.read_bar.calls", "count"}, {"store.read_bar.s", "s"},
      {"store.read_block.calls", "count"}, {"store.read_block.s", "s"},
      {"store.load_member.s", "s"}, {"store.bytes", "B"},
      {"store.segments", "count"}, {"parcomm.messages", "count"},
      {"parcomm.bytes", "B"}, {"parcomm.send_s", "s"},
      {"parcomm.recv_wait_s", "s"}, {"parcomm.payload_copies", "count"},
      {"senkf.io_read_s", "s"}, {"senkf.io_send_s", "s"},
      {"senkf.comp_wait_s", "s"}, {"senkf.comp_update_s", "s"},
      {"senkf.read_skew", "ratio"}, {"penkf.read_s", "s"},
      {"penkf.update_s", "s"}, {"lenkf.read_s", "s"},
      {"lenkf.send_s", "s"}, {"lenkf.update_s", "s"}};
  for (const auto& [name, unit] : layer_units) {
    metrics.add(name, median(rounds[name]), unit);
  }
  metrics.add("obs.localize.s", localization.seconds, "s");
  metrics.add("obs.localize.calls", static_cast<double>(localization.calls),
              "count");
  metrics.add("obs.localize.bytes", static_cast<double>(localization.bytes),
              "B");
  metrics.add("obs.localize.misses", misses, "count");
  metrics.add("analysis.patch_s", median(patches.patch_s), "s");
  metrics.add("analysis.patches", static_cast<double>(patches.patch_s.size()),
              "count");
  metrics.add("analysis.n_bar.mean", patches.n_bar_mean, "points");
  metrics.add("analysis.n_bar.max", patches.n_bar_max, "points");
  metrics.add("analysis.m_bar.mean", patches.m_bar_mean, "obs");
  metrics.add("analysis.allocs_per_patch", patches.allocs_per_patch, "count");
  metrics.add("model.advance_s", cycle.model_s, "s");
  metrics.add("obs.network_s", cycle.network_s, "s");
  metrics.add("cycle.senkf_s", cycle.senkf_s, "s");
  const std::pair<const char*, const char*> path_units[] = {
      {"cp.compute_s", "s"}, {"cp.disk_s", "s"}, {"cp.comm_blocked_s", "s"},
      {"cp.other_s", "s"}, {"cp.untracked_s", "s"},
      {"cp.untracked_share", "ratio"}, {"cp.message_hops", "count"},
      {"cp.missing_edges", "count"}};
  for (const auto& [name, unit] : path_units) {
    metrics.add(name, median(rounds[name]), unit);
  }
  metrics.add("cp.sum_error", worst_sum_error, "ratio");
  metrics.add("trace.overhead", median(traced) / median(untraced) - 1.0,
              "ratio");

  std::cout << "# traced rounds: " << traced.size()
            << " (S-EnKF untraced median " << median(untraced)
            << " s, traced median " << median(traced) << " s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const e2e::WorkloadSpec* spec = e2e::find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "e2e_bench: refusing to run with " << name
                << " set; unset it (it changes what every call measures)\n";
      return 2;
    }
  }

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::cout << "# e2ebench workload=" << spec->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << '\n'
            << "# host: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\" kernels.active="
            << senkf::linalg::kernels::active_kernels().name << '\n'
            << "# build: compiler=\"" << __VERSION__
            << "\" build_type=" << E2E_BUILD_TYPE
            << " optimized=" << (optimized ? "yes" : "NO") << '\n';
  if (!optimized) {
    std::cout << "# WARNING: built without optimisation; timings are not "
                 "comparable to an optimised build\n";
  }
  if (spec->file_store) {
    std::cout << "# the file store is written at set-up and read page-cache "
                 "warm\n";
  }

  Run run{args, *spec, {}, nullptr, std::nullopt, {}};
  Metrics metrics;
  try {
    std::filesystem::create_directories(args.data_dir);
    if (args.trace) {
      per_layer(run, metrics);
    } else {
      end_to_end(run, metrics);
    }
  } catch (const std::exception& error) {
    std::cerr << "e2e_bench: " << error.what() << '\n';
    return 1;
  }
  run.scenario.reset();  // removes the ensemble files

  const bool correct = run.verdict.failed() == 0 && metrics.all_finite();
  std::cout << "# " << (args.trace ? "per-layer" : "end-to-end")
            << " metrics (" << spec->name << "):\n";
  metrics.print_table(std::cout);
  std::cout << "# error_rate: " << run.verdict.failed() << " / "
            << run.verdict.attempted() << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.verdict.attempted()
            << ", \"failed\": " << run.verdict.failed()
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}
