#!/usr/bin/env python3
"""Schema checker for senkf-run-report JSON (schema v5, DESIGN.md §11-§16).

Usage: check_report.py REPORT.json [--kind senkf] [--require-warns]
                       [--require-critical-path] [--require-profile]

Validates structure and types, cross-checks the acceptance invariants
(aggregated phase totals equal the sum of the per-rank samples;
critical-path splits partition each cycle's wall clock to within 5%;
profile/watchdog sections are either disabled stubs or fully
populated), and exits nonzero on any violation.  Stdlib only — runs
anywhere CI has a python3.
"""
import argparse
import json
import sys

RANK_FIELDS = {
    "rank": (int,),
    "is_io": (bool,),
    "group": (int,),
    "read_s": (int, float),
    "obtain_s": (int, float),
    "send_s": (int, float),
    "wait_s": (int, float),
    "update_s": (int, float),
    "messages": (int,),
    "retries": (int,),
    "reissued": (int,),
    "backlog_peak": (int,),
}

errors = []


def check(ok, message):
    if not ok:
        errors.append(message)
    return ok


def require(obj, key, types, where):
    if not check(isinstance(obj, dict) and key in obj,
                 f"{where}: missing key '{key}'"):
        return None
    value = obj[key]
    # bool is an int subclass; keep the kinds distinct.
    if bool not in types and isinstance(value, bool):
        check(False, f"{where}.{key}: expected {types}, got bool")
        return None
    check(isinstance(value, tuple(types)),
          f"{where}.{key}: expected {types}, got {type(value).__name__}")
    return value


CP_NUMBER_FIELDS = ("wall_s", "attributed_s", "compute_s", "disk_s",
                    "comm_blocked_s", "other_s", "untracked_s")


def check_critical_path(cp, where):
    for key in CP_NUMBER_FIELDS:
        require(cp, key, (int, float), where)
    require(cp, "cycle", (int,), where)
    require(cp, "message_hops", (int,), where)
    require(cp, "missing_edges", (int,), where)
    require(cp, "truncated", (bool,), where)
    top = require(cp, "top", (list,), where) or []
    for i, contributor in enumerate(top):
        require(contributor, "rank", (int,), f"{where}.top[{i}]")
        require(contributor, "phase", (str,), f"{where}.top[{i}]")
        require(contributor, "seconds", (int, float), f"{where}.top[{i}]")
    # Acceptance invariant (ISSUE 7): the splits partition wall clock.
    wall = cp.get("wall_s")
    if isinstance(wall, (int, float)) and wall > 0:
        split_sum = sum(cp.get(k, 0) or 0
                        for k in CP_NUMBER_FIELDS if k not in
                        ("wall_s", "attributed_s"))
        check(abs(split_sum - wall) <= 0.05 * wall,
              f"{where}: splits sum {split_sum:.6f} != wall {wall:.6f} "
              f"(>5% off)")


def check_series_map(series, where):
    for name, data in series.items():
        require(data, "dropped", (int,), f"{where}.{name}")
        points = require(data, "points", (list,), f"{where}.{name}") or []
        last_t = None
        for i, point in enumerate(points):
            ok = (isinstance(point, list) and len(point) == 2 and
                  isinstance(point[0], int) and
                  isinstance(point[1], (int, float)))
            if not check(ok, f"{where}.{name}.points[{i}]: want [t_ns, value]"):
                continue
            if last_t is not None:
                check(point[0] >= last_t,
                      f"{where}.{name}.points[{i}]: out of time order")
            last_t = point[0]


def check_gauge_stat(stat, where):
    for key in ("min", "max", "mean", "sum", "sumsq"):
        require(stat, key, (int, float), where)
    require(stat, "count", (int,), where)


def check_profile(profile, where, required):
    """The v4 profiler section: a disabled stub or a full sample dump."""
    enabled = require(profile, "enabled", (bool,), where)
    if required:
        check(enabled is True, f"{where}.enabled: profiler did not run")
    if not enabled:
        return
    require(profile, "mode", (str,), where)
    check(profile.get("mode") in ("cpu", "wall"),
          f"{where}.mode: got {profile.get('mode')!r}")
    hz = require(profile, "hz", (int,), where)
    check(hz is None or 1 <= hz <= 1000, f"{where}.hz: got {hz}")
    samples = require(profile, "samples", (int,), where)
    require(profile, "dropped", (int,), where)
    require(profile, "torn", (int,), where)
    phases = require(profile, "phases", (dict,), where) or {}
    for name, count in phases.items():
        check(isinstance(count, int) and not isinstance(count, bool),
              f"{where}.phases.{name}: not an integer")
    top = require(profile, "top", (list,), where) or []
    top_total = 0
    for i, bucket in enumerate(top):
        require(bucket, "stack", (str,), f"{where}.top[{i}]")
        require(bucket, "rank", (int,), f"{where}.top[{i}]")
        count = require(bucket, "count", (int,), f"{where}.top[{i}]")
        top_total += count or 0
    if isinstance(samples, int):
        # `top` is a truncated view of the same sample population.
        check(top_total <= samples,
              f"{where}: top buckets sum {top_total} > samples {samples}")
        check(sum(phases.values()) <= samples,
              f"{where}: phase counts sum {sum(phases.values())} > "
              f"samples {samples}")
        if required:
            check(samples >= 1, f"{where}.samples: got {samples}, want >= 1")
            check(len(phases) >= 1, f"{where}.phases: empty")


def check_watchdog(watchdog, where):
    """The v4 watchdog section: a disabled stub or the stall ledger."""
    enabled = require(watchdog, "enabled", (bool,), where)
    if not enabled:
        return
    require(watchdog, "running", (bool,), where)
    scale = require(watchdog, "scale", (int, float), where)
    check(scale is None or scale > 0, f"{where}.scale: got {scale}")
    armed = require(watchdog, "armed", (int,), where)
    fired = require(watchdog, "fired", (int,), where)
    status = require(watchdog, "status", (str,), where)
    if isinstance(fired, int) and isinstance(status, str):
        check(status == ("ok" if fired == 0 else "stalled"),
              f"{where}.status: {status!r} inconsistent with fired={fired}")
    if isinstance(armed, int) and isinstance(fired, int):
        check(fired <= armed, f"{where}: fired {fired} > armed {armed}")
    overruns = require(watchdog, "overruns", (list,), where) or []
    for i, o in enumerate(overruns):
        require(o, "phase", (str,), f"{where}.overruns[{i}]")
        require(o, "rank", (int,), f"{where}.overruns[{i}]")
        deadline = require(o, "deadline_s", (int, float),
                           f"{where}.overruns[{i}]")
        overrun = require(o, "overrun_s", (int, float),
                          f"{where}.overruns[{i}]")
        check(deadline is None or deadline > 0,
              f"{where}.overruns[{i}].deadline_s: got {deadline}")
        check(overrun is None or overrun >= 0,
              f"{where}.overruns[{i}].overrun_s: got {overrun}")
    if isinstance(fired, int):
        check(len(overruns) <= fired,
              f"{where}: {len(overruns)} overrun records but fired={fired}")


def check_snapshot(snapshot, where):
    counters = require(snapshot, "counters", (dict,), where) or {}
    for name, value in counters.items():
        check(isinstance(value, int) and not isinstance(value, bool),
              f"{where}.counters.{name}: not an integer")
    gauges = require(snapshot, "gauges", (dict,), where) or {}
    for name, stat in gauges.items():
        check_gauge_stat(stat, f"{where}.gauges.{name}")
    histograms = require(snapshot, "histograms", (dict,), where) or {}
    for name, hist in histograms.items():
        bounds = require(hist, "bounds", (list,), f"{where}.histograms.{name}")
        buckets = require(hist, "buckets", (list,),
                          f"{where}.histograms.{name}")
        require(hist, "count", (int,), f"{where}.histograms.{name}")
        require(hist, "sum", (int, float), f"{where}.histograms.{name}")
        if bounds is not None and buckets is not None:
            check(len(buckets) == len(bounds) + 1,
                  f"{where}.histograms.{name}: {len(buckets)} buckets for "
                  f"{len(bounds)} bounds (want bounds+1)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--kind", default=None,
                        help="require run.kind to equal this")
    parser.add_argument("--require-warns", action="store_true",
                        help="require at least one straggler WARN")
    parser.add_argument("--require-critical-path", action="store_true",
                        help="require at least one per-cycle critical path")
    parser.add_argument("--require-profile", action="store_true",
                        help="require an enabled profile section with "
                             "samples attributed to at least one phase")
    args = parser.parse_args()

    with open(args.report, encoding="utf-8") as f:
        doc = json.load(f)

    check(doc.get("schema") == "senkf-run-report",
          f"schema: got {doc.get('schema')!r}")
    check(doc.get("version") == 5, f"version: got {doc.get('version')!r}")
    require(doc, "partial", (bool,), "$")

    run = require(doc, "run", (dict,), "$") or {}
    require(run, "kind", (str,), "run")
    valid = require(run, "valid", (bool,), "run")
    check(valid is True, "run.valid: no run populated this report")
    if args.kind is not None:
        check(run.get("kind") == args.kind,
              f"run.kind: got {run.get('kind')!r}, want {args.kind!r}")
    config = require(run, "config", (dict,), "run") or {}
    for key, value in config.items():
        check(isinstance(value, str), f"run.config.{key}: not a string")
    phases = require(run, "phases", (dict,), "run") or {}
    drift = require(run, "drift", (dict,), "run") or {}
    for section, name in ((phases, "phases"), (drift, "drift"),
                          (require(run, "skew", (dict,), "run") or {}, "skew")):
        for key, value in section.items():
            check(isinstance(value, (int, float)) and
                  not isinstance(value, bool),
                  f"run.{name}.{key}: not a number")
    warns = require(run, "straggler_warns", (int,), "run")
    if args.require_warns:
        check(warns is not None and warns >= 1,
              f"run.straggler_warns: got {warns}, want >= 1")
    dropped = require(run, "dropped_members", (list,), "run") or []
    for i, member in enumerate(dropped):
        check(isinstance(member, int), f"run.dropped_members[{i}]: not an int")

    ranks = require(run, "ranks", (list,), "run") or []
    for i, sample in enumerate(ranks):
        for key, types in RANK_FIELDS.items():
            require(sample, key, types, f"run.ranks[{i}]")

    aggregate = require(run, "aggregate", (dict,), "run")
    if aggregate is not None:
        check_snapshot(aggregate, "run.aggregate")

    # --- v2 additions (DESIGN.md §13) ---------------------------------
    critical_paths = require(run, "critical_paths", (list,), "run") or []
    for i, cp in enumerate(critical_paths):
        check_critical_path(cp, f"run.critical_paths[{i}]")
    if args.require_critical_path:
        check(len(critical_paths) >= 1,
              "run.critical_paths: empty (tracing was off?)")

    metrics = require(doc, "metrics", (dict,), "$")
    if metrics is not None:
        check_snapshot(metrics, "$.metrics")

    latency = require(doc, "latency", (dict,), "$") or {}
    for name, q in latency.items():
        p50 = require(q, "p50", (int, float), f"$.latency.{name}")
        p90 = require(q, "p90", (int, float), f"$.latency.{name}")
        p99 = require(q, "p99", (int, float), f"$.latency.{name}")
        require(q, "count", (int,), f"$.latency.{name}")
        if all(isinstance(v, (int, float)) for v in (p50, p90, p99)):
            check(p50 <= p90 <= p99,
                  f"$.latency.{name}: quantiles not monotone "
                  f"({p50}, {p90}, {p99})")

    timeseries = require(doc, "timeseries", (dict,), "$") or {}
    require(timeseries, "sample_interval_ms", (int,), "$.timeseries")
    require(timeseries, "samples", (int,), "$.timeseries")
    require(timeseries, "capacity", (int,), "$.timeseries")
    series = require(timeseries, "series", (dict,), "$.timeseries")
    if series is not None:
        check_series_map(series, "$.timeseries.series")

    # --- v4 additions (DESIGN.md §16): live operations plane -----------
    profile = require(doc, "profile", (dict,), "$")
    if profile is not None:
        check_profile(profile, "$.profile", args.require_profile)
    elif args.require_profile:
        check(False, "$.profile: missing but --require-profile set")
    watchdog = require(doc, "watchdog", (dict,), "$")
    if watchdog is not None:
        check_watchdog(watchdog, "$.watchdog")

    require(doc, "faults", (dict,), "$")

    # Acceptance invariant: aggregated phase totals equal the sum of the
    # per-rank samples (both derive from the same rank-local counters).
    if ranks and phases:
        sums = {
            "io_read_s": sum(r.get("read_s", 0) for r in ranks),
            "io_send_s": sum(r.get("send_s", 0) for r in ranks),
            "comp_wait_s": sum(r.get("wait_s", 0) for r in ranks),
            "comp_update_s": sum(r.get("update_s", 0) for r in ranks),
        }
        for name, total in sums.items():
            reported = phases.get(name)
            if reported is None:
                check(False, f"run.phases.{name}: missing")
                continue
            tolerance = 1e-9 + 1e-9 * abs(total)
            check(abs(reported - total) <= tolerance,
                  f"run.phases.{name}: {reported} != per-rank sum {total}")

    # Drift gauges must be populated for a completed run (model vs an
    # in-memory measurement always disagrees).
    if not doc.get("partial", False):
        for phase in ("read", "comm", "comp"):
            check(drift.get(phase, 0.0) != 0.0,
                  f"run.drift.{phase}: expected a nonzero drift")

    if errors:
        print(f"check_report: {args.report} FAILED "
              f"({len(errors)} violation(s)):")
        for message in errors:
            print(f"  - {message}")
        return 1
    print(f"check_report: {args.report} OK "
          f"(kind={run.get('kind')}, ranks={len(ranks)}, "
          f"warns={run.get('straggler_warns')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
