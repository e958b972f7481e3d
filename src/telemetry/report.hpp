// Versioned machine-readable run reports (DESIGN.md §11).
//
// senkf() populates the process-global RunReport: config, phase
// breakdown, model drift, skew summary and the run's aggregate
// (per-rank samples, histograms and series).  `SENKF_REPORT=<path>`
// arms an atexit export of that state as JSON (schema "senkf-run-report",
// version RunReport::kVersion); the fault path calls flush_exports() so
// an aborting run still leaves a partial report + trace on disk before
// the exception unwinds past atexit.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/aggregate.hpp"
#include "telemetry/critical_path.hpp"

namespace senkf::telemetry {

struct RunReport {
  /// Bumped when the JSON layout changes incompatibly.  v2 adds the
  /// per-cycle critical-path section, latency quantiles, and the
  /// time-series section (DESIGN.md §13).  v3 added a per-job SLO
  /// section.  v4 adds the "profile" and "watchdog" sections fed by the
  /// liveops plane (DESIGN.md §16); both default to {"enabled": false}
  /// when the profiler/watchdog never armed.  v5 drops the v3 job
  /// section and the profile buckets' "context" label.
  static constexpr int kVersion = 5;

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
  /// The run's aggregate: per-rank samples, histograms and per-rank
  /// series (S-EnKF reads them off its run ledger).
  MetricsSnapshot aggregate;
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

/// Registers the provider for a pluggable report section (schema v4).
/// The liveops plane — which sits *above* telemetry in the link order —
/// registers "profile" and "watchdog" here; write_run_report calls the
/// provider at write time and splices the returned JSON value under the
/// section's key.  A section with no provider (or whose provider
/// throws) is written as {"enabled": false}, so the keys are always
/// present for the checker.  Passing a null provider unregisters.
void set_report_section_provider(const std::string& name,
                                 std::function<std::string()> provider);

/// Marks the global report partial without touching its data; called on
/// the fault path before flush_exports().
void mark_run_partial();

/// Copy of the current global report (tests, examples).
RunReport run_report_copy();

/// Writes schema "senkf-run-report" version RunReport::kVersion: the
/// global RunReport plus the per-cycle critical paths, p50/p90/p99
/// latency quantiles for every "*_us" histogram of the registry and the
/// run, the time-series section (sampler + the run's per-rank series),
/// the pluggable sections, and a dump of every metric currently in the
/// registry.
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
/// Before writing it takes one final time-series sample (so the exported
/// report carries the tail of the aborted interval) and, when tracing is
/// armed and no cycle completed, computes a partial critical path over
/// the events recorded so far — an aborting run keeps its attribution.
/// Never throws: a failed run must not lose its root cause to an export
/// error.  Used by the fault-abort path; safe to call more than once
/// (atexit simply rewrites with fuller data on a clean exit).
void flush_exports(bool partial = true) noexcept;

}  // namespace senkf::telemetry
