// Versioned machine-readable run reports (DESIGN.md §11).
//
// senkf() populates the process-global RunReport: config, phase
// breakdown, model drift, skew summary, per-rank samples and the run's
// own metric rows.  `SENKF_REPORT=<path>`
// arms an atexit export of that state as JSON (schema "senkf-run-report",
// version RunReport::kVersion); the fault path calls flush_exports() so
// an aborting run still leaves a partial report + trace on disk before
// the exception unwinds past atexit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/critical_path.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::telemetry {

/// One rank's phase totals for a run, surfaced in SenkfStats and the run
/// report.  Times are seconds of wall clock inside the respective phase
/// on that rank.
struct RankSample {
  std::int32_t rank = -1;
  std::uint8_t is_io = 0;
  std::int32_t group = -1;  ///< concurrent group for I/O ranks, else -1
  double read_s = 0.0;      ///< bar-read time (successful reads only)
  double obtain_s = 0.0;    ///< full acquisition incl. injected delays/backoff
  double send_s = 0.0;      ///< block scatter / result send time
  double wait_s = 0.0;      ///< comp: main-thread stage wait
  double update_s = 0.0;    ///< comp: summed analysis task time
  std::uint64_t messages = 0;
  std::uint64_t retries = 0;
  std::uint64_t backlog_peak = 0;  ///< comp: max stages buffered ahead of use
};

struct RunReport {
  /// Bumped when the JSON layout changes incompatibly.  v2 added the
  /// per-cycle critical paths (DESIGN.md §13), v4 the liveops "watchdog"
  /// section (DESIGN.md §16).  v5 dropped the job section v3 had added,
  /// v6 the "timeseries" and "profile" sections of v2 and v4, v7 the
  /// per-rank "reissued" count, and v8 the "latency", "analysis" and
  /// "faults" copies of "metrics"; v8 writes a gauge as its value.
  static constexpr int kVersion = 8;

  std::string kind;     ///< "senkf"
  bool valid = false;   ///< a run populated this report
  bool partial = false; ///< the run aborted; numbers cover the prefix
  /// Ordered config key/value pairs (stringified; order preserved).
  std::vector<std::pair<std::string, std::string>> config;
  /// Phase name -> seconds (whole-run totals across ranks).
  std::map<std::string, double> phases;
  /// "read"/"comm"/"comp" -> relative error vs tuning::CostModel.
  std::map<std::string, double> drift;
  /// Skew summary ("read.ratio", "group.ratio", ...).
  std::map<std::string, double> skew;
  std::uint64_t straggler_warns = 0;
  std::vector<std::uint64_t> dropped_members;
  /// Per-rank samples in rank order (S-EnKF reads them off its run
  /// ledger).
  std::vector<RankSample> ranks;
  /// The run's own metric rows, written as "run.aggregate" in the same
  /// representation as the registry's (S-EnKF: its per-stage acquisition
  /// histogram).
  std::vector<MetricRow> aggregate;
};

/// Replaces the process-global report (the last run wins).
void set_run_report(RunReport report);

/// Appends one per-cycle critical-path summary to the accumulating
/// process-global list and assigns it the next cycle index (1-based).
/// Deliberately separate from set_run_report: cycled runs replace the
/// report once per cycle but the attribution history must span them.
void append_critical_path(CriticalPathSummary summary);

/// Copy of every appended per-cycle summary, in cycle order.
std::vector<CriticalPathSummary> critical_paths_copy();

/// Drops the accumulated summaries and resets the cycle counter (tests
/// call it between runs).
void clear_critical_paths();

/// Marks the global report partial without touching its data; called on
/// the fault path before flush_exports().
void mark_run_partial();

/// Copy of the current global report (tests, examples).
RunReport run_report_copy();

/// Writes schema "senkf-run-report" version RunReport::kVersion: the
/// global RunReport plus the per-cycle critical paths, every metric
/// currently in the registry, and the liveops "watchdog" section.
void write_run_report(std::ostream& out);
void write_run_report(const std::string& path);

/// Parsed form of the SENKF_REPORT environment value (exposed for tests).
struct ReportEnvConfig {
  std::string export_path;  ///< empty = no export at exit
};
ReportEnvConfig parse_report_env(const char* value);

/// Path the process will export the report to at exit ("" = none).
const std::string& report_export_path();

/// Immediately writes the armed exports (trace and report, if their env
/// paths are set), marking the report partial first when `partial`.
/// Before writing, when tracing is armed and no cycle completed, it
/// computes a partial critical path over the events recorded so far — an
/// aborting run keeps its attribution.
/// Never throws: a failed run must not lose its root cause to an export
/// error.  Used by the fault-abort path; safe to call more than once
/// (atexit simply rewrites with fuller data on a clean exit).
void flush_exports(bool partial = true) noexcept;

}  // namespace senkf::telemetry
