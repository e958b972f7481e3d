#!/usr/bin/env python3
"""Schema checker for senkf-run-report JSON (schema v8, DESIGN.md §11-§16).

Usage: check_report.py REPORT.json [--kind senkf] [--require-warns]
                       [--require-critical-path]

Validates structure and types, cross-checks the acceptance invariants
(aggregated phase totals equal the sum of the per-rank samples; with
--kind senkf, the run's stage_obtain_us histogram holds one observation
per I/O rank per layer and sums to the I/O ranks' obtain_s;
critical-path splits partition each cycle's wall clock to within 5%;
the watchdog section is complete; every gauge is a number), and exits
nonzero on any violation.  Stdlib only — runs
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


def check_watchdog(watchdog, where):
    """The stall ledger, every field written whether or not it ran."""
    require(watchdog, "enabled", (bool,), where)
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
    for name, value in gauges.items():
        check(isinstance(value, (int, float)) and not isinstance(value, bool),
              f"{where}.gauges.{name}: not a number")
    histograms = require(snapshot, "histograms", (dict,), where) or {}
    for name, hist in histograms.items():
        at = f"{where}.histograms.{name}"
        bounds = require(hist, "bounds", (list,), at)
        buckets = require(hist, "buckets", (list,), at)
        require(hist, "count", (int,), at)
        require(hist, "sum", (int, float), at)
        if bounds is not None and buckets is not None:
            check(len(buckets) == len(bounds) + 1,
                  f"{at}: {len(buckets)} buckets for "
                  f"{len(bounds)} bounds (want bounds+1)")
        quantiles = [require(hist, q, (int, float), at)
                     for q in ("p50", "p90", "p99")]
        if all(isinstance(v, (int, float)) for v in quantiles):
            check(quantiles == sorted(quantiles),
                  f"{at}: quantiles not monotone {tuple(quantiles)}")


def check_stage_obtain(run, ranks, config):
    """S-EnKF's run histogram and run.ranks read the same ledger cells."""
    name = "senkf.rank.stage_obtain_us"
    where = f"run.aggregate.histograms.{name}"
    histograms = (run.get("aggregate") or {}).get("histograms") or {}
    hist = histograms.get(name)
    if not check(isinstance(hist, dict), f"{where}: missing"):
        return
    io_ranks = [r for r in ranks if r.get("is_io") is True]
    layers = config.get("layers", "")
    if check(isinstance(layers, str) and layers.isdigit(),
             f"run.config.layers: got {layers!r}"):
        want = len(io_ranks) * int(layers)
        check(hist.get("count") == want,
              f"{where}.count: {hist.get('count')} != {len(io_ranks)} "
              f"I/O ranks x {layers} layers")
    want_sum = 1e6 * sum(r.get("obtain_s", 0) for r in io_ranks)
    got_sum = hist.get("sum")
    check(isinstance(got_sum, (int, float)) and
          abs(got_sum - want_sum) <= 1e-9 * abs(want_sum),
          f"{where}.sum: {got_sum} != 1e6 x I/O ranks' obtain_s "
          f"{want_sum}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--kind", default=None,
                        help="require run.kind to equal this")
    parser.add_argument("--require-warns", action="store_true",
                        help="require at least one straggler WARN")
    parser.add_argument("--require-critical-path", action="store_true",
                        help="require at least one per-cycle critical path")
    args = parser.parse_args()

    with open(args.report, encoding="utf-8") as f:
        doc = json.load(f)

    check(doc.get("schema") == "senkf-run-report",
          f"schema: got {doc.get('schema')!r}")
    check(doc.get("version") == 8, f"version: got {doc.get('version')!r}")
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

    # --- v4 addition (DESIGN.md §16): live operations plane ------------
    watchdog = require(doc, "watchdog", (dict,), "$")
    if watchdog is not None:
        check_watchdog(watchdog, "$.watchdog")

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

    if args.kind == "senkf":
        check_stage_obtain(run, ranks, config)

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
