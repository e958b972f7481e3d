#include "telemetry/report.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "telemetry/json_writer.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace senkf::telemetry {

namespace {

std::mutex g_report_mutex;

RunReport& global_report() {
  static RunReport* report = new RunReport();  // leaked: read at atexit
  return *report;
}

// Accumulated per-cycle critical paths (guarded by g_report_mutex).
// Separate from the RunReport so cycled runs — which replace the report
// every cycle — keep their whole attribution history.
std::vector<CriticalPathSummary>& global_critical_paths() {
  static auto* paths = new std::vector<CriticalPathSummary>();
  return *paths;
}
std::uint64_t g_next_cycle = 0;

// Pluggable v4 section providers (liveops profile/watchdog).  Own mutex:
// a provider may itself call report accessors, so it must never run
// under g_report_mutex.
std::mutex g_section_mutex;
std::map<std::string, std::function<std::string()>>& section_providers() {
  static auto* providers =
      new std::map<std::string, std::function<std::string()>>();
  return *providers;
}

// Renders one pluggable section; {"enabled": false} when unregistered
// or the provider failed — the key must always be present and valid.
std::string render_section(const std::string& name) {
  std::function<std::string()> provider;
  {
    std::lock_guard<std::mutex> lock(g_section_mutex);
    const auto it = section_providers().find(name);
    if (it != section_providers().end()) provider = it->second;
  }
  if (provider) {
    try {
      std::string body = provider();
      if (!body.empty()) return body;
    } catch (...) {
    }
  }
  return "{\"enabled\":false}";
}

// Mirrors trace.cpp's EnvInit: parse once before main(), export via
// atexit so any binary gets a report with zero code changes.
struct EnvInit {
  EnvInit() {
    const ReportEnvConfig config = parse_report_env(std::getenv("SENKF_REPORT"));
    export_path = config.export_path;
    if (!export_path.empty()) {
      std::atexit([] {
        const std::string& path = report_export_path();
        try {
          write_run_report(path);
          std::cerr << "[senkf report] wrote " << path << "\n";
        } catch (const std::exception& e) {
          std::cerr << "[senkf report] export failed: " << e.what() << "\n";
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

const bool g_env_applied = (env_init(), true);

void write_gauge_stat(JsonWriter& json, const GaugeStat& g) {
  json.begin_object()
      .field("min", g.min)
      .field("max", g.max)
      .field("mean", g.mean())
      .field("sum", g.sum)
      .field("sumsq", g.sumsq)
      .field("count", g.count)
      .end_object();
}

void write_histogram_state(JsonWriter& json, const HistogramState& h) {
  json.begin_object();
  json.key("bounds").begin_array();
  for (const double b : h.bounds) json.value(b);
  json.end_array();
  json.key("buckets").begin_array();
  for (const std::uint64_t b : h.buckets) json.value(b);
  json.end_array();
  json.field("count", h.count).field("sum", h.sum);
  json.field("p50", histogram_quantile(h.bounds, h.buckets, 0.50))
      .field("p90", histogram_quantile(h.bounds, h.buckets, 0.90))
      .field("p99", histogram_quantile(h.bounds, h.buckets, 0.99));
  json.end_object();
}

void write_series_map(JsonWriter& json,
                      const std::map<std::string, SeriesData>& series) {
  json.begin_object();
  for (const auto& [name, s] : series) {
    json.key(name).begin_object().field("dropped", s.dropped);
    json.key("points").begin_array();
    for (const SeriesPoint& p : s.points) {
      json.begin_array().value(p.t_ns).value(p.value).end_array();
    }
    json.end_array().end_object();
  }
  json.end_object();
}

void write_snapshot(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, v] : snapshot.counters) json.field(name, v);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, g] : snapshot.gauges) {
    json.key(name);
    write_gauge_stat(json, g);
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    json.key(name);
    write_histogram_state(json, h);
  }
  json.end_object();
  json.end_object();
}

void write_rank_sample(JsonWriter& json, const RankSample& r) {
  json.begin_object()
      .field("rank", r.rank)
      .field("is_io", r.is_io != 0)
      .field("group", r.group)
      .field("read_s", r.read_s)
      .field("obtain_s", r.obtain_s)
      .field("send_s", r.send_s)
      .field("wait_s", r.wait_s)
      .field("update_s", r.update_s)
      .field("messages", r.messages)
      .field("retries", r.retries)
      .field("reissued", r.reissued)
      .field("backlog_peak", r.backlog_peak)
      .end_object();
}

}  // namespace

void set_run_report(RunReport report) {
  report.valid = true;
  std::lock_guard<std::mutex> lock(g_report_mutex);
  global_report() = std::move(report);
}

void append_critical_path(CriticalPathSummary summary) {
  std::lock_guard<std::mutex> lock(g_report_mutex);
  summary.cycle = ++g_next_cycle;
  global_critical_paths().push_back(std::move(summary));
}

std::vector<CriticalPathSummary> critical_paths_copy() {
  std::lock_guard<std::mutex> lock(g_report_mutex);
  return global_critical_paths();
}

void clear_critical_paths() {
  std::lock_guard<std::mutex> lock(g_report_mutex);
  global_critical_paths().clear();
  g_next_cycle = 0;
}

void set_report_section_provider(const std::string& name,
                                 std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(g_section_mutex);
  if (provider) {
    section_providers()[name] = std::move(provider);
  } else {
    section_providers().erase(name);
  }
}

void mark_run_partial() {
  std::lock_guard<std::mutex> lock(g_report_mutex);
  global_report().partial = true;
}

RunReport run_report_copy() {
  std::lock_guard<std::mutex> lock(g_report_mutex);
  return global_report();
}

void write_run_report(std::ostream& out) {
  const RunReport report = run_report_copy();

  JsonWriter json(out);
  json.begin_object()
      .field("schema", "senkf-run-report")
      .field("version", RunReport::kVersion)
      .field("partial", report.partial);

  json.key("run").begin_object();
  json.field("kind", report.kind).field("valid", report.valid);
  json.key("config").begin_object();
  for (const auto& [key, value] : report.config) json.field(key, value);
  json.end_object();
  json.key("phases").begin_object();
  for (const auto& [name, seconds] : report.phases) json.field(name, seconds);
  json.end_object();
  json.key("drift").begin_object();
  for (const auto& [name, rel] : report.drift) json.field(name, rel);
  json.end_object();
  json.key("skew").begin_object();
  for (const auto& [name, v] : report.skew) json.field(name, v);
  json.end_object();
  json.field("straggler_warns", report.straggler_warns);
  json.key("dropped_members").begin_array();
  for (const std::uint64_t m : report.dropped_members) json.value(m);
  json.end_array();
  json.key("ranks").begin_array();
  for (const RankSample& r : report.aggregate.ranks) {
    write_rank_sample(json, r);
  }
  json.end_array();
  json.key("aggregate");
  write_snapshot(json, report.aggregate);

  // Per-cycle critical-path attribution (DESIGN.md §13): the splits
  // partition each cycle's wall clock, so attributed_s + untracked_s
  // reproduces wall_s to rounding.
  json.key("critical_paths").begin_array();
  for (const CriticalPathSummary& cp : critical_paths_copy()) {
    json.begin_object()
        .field("cycle", cp.cycle)
        .field("wall_s", cp.wall_s)
        .field("attributed_s", cp.attributed_s)
        .field("compute_s", cp.compute_s)
        .field("disk_s", cp.disk_s)
        .field("comm_blocked_s", cp.comm_blocked_s)
        .field("other_s", cp.other_s)
        .field("untracked_s", cp.untracked_s)
        .field("message_hops", cp.message_hops)
        .field("missing_edges", cp.missing_edges)
        .field("truncated", cp.truncated);
    json.key("top").begin_array();
    for (const CriticalPathSummary::Contributor& c : cp.top) {
      json.begin_object()
          .field("rank", c.rank)
          .field("phase", c.phase)
          .field("seconds", c.seconds)
          .end_object();
    }
    json.end_array().end_object();
  }
  json.end_array();
  json.end_object();  // run

  // Whole-registry dump at write time: includes planes outside the run
  // (parcomm, pfs faults, kernels) and survives even when no run
  // populated the report.
  json.key("metrics");
  const MetricsSnapshot registry = MetricsSnapshot::capture(Registry::global());
  write_snapshot(json, registry);

  // Latency quantiles for every microsecond histogram, the registry's
  // (thread-pool queue/exec wait) and the run's (stage obtain) — the
  // triage view; the raw buckets stay available in the dumps above.
  // Names are disjoint by convention ("senkf.rank.*" lives in the run).
  json.key("latency").begin_object();
  for (const auto* histograms :
       {&registry.histograms, &report.aggregate.histograms}) {
    for (const auto& [name, h] : *histograms) {
      if (name.size() < 3 || name.compare(name.size() - 3, 3, "_us") != 0) {
        continue;
      }
      json.key(name)
          .begin_object()
          .field("p50", histogram_quantile(h.bounds, h.buckets, 0.50))
          .field("p90", histogram_quantile(h.bounds, h.buckets, 0.90))
          .field("p99", histogram_quantile(h.bounds, h.buckets, 0.99))
          .field("count", h.count)
          .end_object();
    }
  }
  json.end_object();

  // Time-series section: the process sampler's registry-delta series
  // unioned with the run's per-rank series (names are disjoint by
  // convention — "ts.rankN.*" vs metric names).
  {
    const TimeSeriesRecorder& recorder = TimeSeriesRecorder::global();
    std::map<std::string, SeriesData> series = recorder.snapshot();
    for (const auto& [name, s] : report.aggregate.series) {
      series[name].merge(s, kDefaultSeriesCapacity);
    }
    json.key("timeseries")
        .begin_object()
        .field("sample_interval_ms", sampler_interval_ms())
        .field("samples", recorder.samples())
        .field("capacity", static_cast<std::uint64_t>(recorder.capacity()));
    json.key("series");
    write_series_map(json, series);
    json.end_object();
  }

  // Convenience view of the analysis hot path (DESIGN.md §15): patch
  // throughput, steady-state allocation events, arena occupancy and
  // localization-cache effectiveness in one spot (counters as totals,
  // gauges as their maximum).
  json.key("analysis").begin_object();
  for (const auto& [name, v] : registry.counters) {
    if (name.rfind("analysis.", 0) == 0) json.field(name, v);
  }
  for (const auto& [name, g] : registry.gauges) {
    if (name.rfind("analysis.", 0) == 0) json.field(name, g.max);
  }
  json.end_object();

  // Pluggable sections (schema v4, DESIGN.md §16): the liveops plane
  // registers "profile" (sampling-profiler summary + flame data) and
  // "watchdog" (armed deadlines, fired overruns) providers; absent or
  // failing providers render as a disabled stub so checkers can rely on
  // the keys existing in every v4 report.
  json.key("profile").raw_value(render_section("profile"));
  json.key("watchdog").raw_value(render_section("watchdog"));

  // Convenience view for fault triage: the failure counters in one spot.
  json.key("faults").begin_object();
  for (const auto& [name, v] : registry.counters) {
    if (name.rfind("pfs.fault.", 0) == 0 || name.rfind("senkf.read.", 0) == 0 ||
        name == "senkf.member.dropped" || name == "senkf.straggler.warns") {
      json.field(name, v);
    }
  }
  json.end_object();

  json.end_object();
}

void write_run_report(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    throw std::runtime_error("write_run_report: cannot open " + path);
  }
  write_run_report(file);
  file << "\n";
  if (!file) {
    throw std::runtime_error("write_run_report: short write to " + path);
  }
}

ReportEnvConfig parse_report_env(const char* value) {
  ReportEnvConfig config;
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "off" || v == "0" || v == "false") return config;
  config.export_path =
      (v == "on" || v == "1" || v == "true") ? "senkf_report.json" : v;
  return config;
}

const std::string& report_export_path() { return env_init().export_path; }

void flush_exports(bool partial) noexcept {
  if (partial) mark_run_partial();
  try {
    // Tail sample: the aborted interval's deltas make it into the
    // exported time-series even when the background sampler never fired.
    TimeSeriesRecorder::global().sample(Registry::global());
  } catch (...) {
  }
  try {
    // An abort before the first cycle boundary leaves the critical-path
    // list empty; attribute the partial window from whatever spans were
    // recorded so the report still says where the time went.
    if (tracing_enabled() && critical_paths_copy().empty()) {
      const CriticalPathReport cp = analyze_critical_path(collect_events());
      if (cp.valid) append_critical_path(summarize(cp));
    }
  } catch (...) {
  }
  try {
    const std::string& trace_path = trace_export_path();
    if (!trace_path.empty()) {
      write_chrome_trace(trace_path);
      std::cerr << "[senkf trace] wrote partial " << trace_path << "\n";
    }
  } catch (...) {
    // Losing the trace must not mask the run's own failure.
  }
  try {
    const std::string& path = report_export_path();
    if (!path.empty()) {
      write_run_report(path);
      std::cerr << "[senkf report] wrote partial " << path << "\n";
    }
  } catch (...) {
  }
}

}  // namespace senkf::telemetry
