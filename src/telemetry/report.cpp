#include "telemetry/report.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "telemetry/json_writer.hpp"
#include "telemetry/liveops/watchdog.hpp"
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

using Kind = MetricRow::Kind;

/// Writes `rows` as {counters, gauges, histograms}.
void write_rows(JsonWriter& json, const std::vector<MetricRow>& rows) {
  json.begin_object();
  json.key("counters").begin_object();
  for (const MetricRow& row : rows) {
    if (row.kind == Kind::kCounter) json.field(row.name, row.counter);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const MetricRow& row : rows) {
    if (row.kind == Kind::kGauge) json.field(row.name, row.gauge);
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const MetricRow& row : rows) {
    if (row.kind != Kind::kHistogram) continue;
    json.key(row.name).begin_object();
    json.key("bounds").begin_array();
    for (const double b : row.bounds) json.value(b);
    json.end_array();
    json.key("buckets").begin_array();
    for (const std::uint64_t b : row.buckets) json.value(b);
    json.end_array();
    json.field("count", row.count).field("sum", row.sum);
    json.field("p50", histogram_quantile(row.bounds, row.buckets, 0.50))
        .field("p90", histogram_quantile(row.bounds, row.buckets, 0.90))
        .field("p99", histogram_quantile(row.bounds, row.buckets, 0.99));
    json.end_object();
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
  for (const RankSample& r : report.ranks) write_rank_sample(json, r);
  json.end_array();
  json.key("aggregate");
  write_rows(json, report.aggregate);

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
  write_rows(json, Registry::global().rows());

  // Liveops section (DESIGN.md §16): the watchdog's armed deadlines and
  // fired overruns, written as /health writes them.
  json.key("watchdog");
  liveops::write_watchdog(json, liveops::watchdog_stats());

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
