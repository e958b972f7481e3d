#!/usr/bin/env python3
"""Soft benchmark gate: diff two google-benchmark JSON outputs.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.15]
                        [--hard]

Matches benchmarks by name, compares the median real_time (normalized
to ns) of each benchmark's repetitions, and prints a delta table.  Only
iteration rows count: run with --benchmark_repetitions=N and each side
is the median of its N runs, so one noisy repetition cannot flag a
benchmark (the _mean/_median/_stddev aggregate rows are skipped).
Regressions beyond --threshold emit warnings
(GitHub-annotation format under CI) but exit 0 unless --hard — the gate
is advisory while the bench trajectory seeds.  A benchmark present in
the current run but absent from the baseline is NOT a regression: it is
reported as `new-metric` with a non-fatal ::notice annotation, so adding
a benchmark never trips the gate before its baseline lands.  A baseline
benchmark missing from the current run still counts as a regression
(something stopped being measured).

Cross-run deltas are only meaningful on comparable machines, so the two
files' `context` blocks are diffed first: a num_cpus or cpu frequency
mismatch demotes every timing regression to a notice.  Even on one host
a whole recording can run faster or slower than another, so the median
delta over all matched benchmarks is printed as the `recording drift`,
and each benchmark's delta net of it, (1 + delta) / (1 + drift) - 1,
next to its raw delta.  The flag rule reads the raw delta.  Stdlib only.
"""
import argparse
import json
import statistics
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

CONTEXT_KEYS = ("num_cpus", "mhz_per_cpu", "cpu_scaling_enabled")


def load_doc(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def benchmarks_of(doc):
    """Benchmark name -> median real_time (ns) over its repetitions."""
    runs = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        time = bench.get("real_time")
        if name is None or time is None:
            continue
        runs.setdefault(name, []).append(
            time * UNIT_NS.get(bench.get("time_unit", "ns"), 1.0))
    return {name: statistics.median(times) for name, times in runs.items()}


def context_mismatches(base_doc, cur_doc):
    """Machine-context keys that differ between the two runs."""
    base = base_doc.get("context") or {}
    cur = cur_doc.get("context") or {}
    out = []
    for key in CONTEXT_KEYS:
        if key in base and key in cur and base[key] != cur[key]:
            out.append((key, base[key], cur[key]))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression that triggers a warning "
                             "(default 0.15 = +15%%)")
    parser.add_argument("--hard", action="store_true",
                        help="exit 1 when a regression exceeds the threshold")
    args = parser.parse_args()

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    baseline = benchmarks_of(base_doc)
    current = benchmarks_of(cur_doc)

    mismatches = context_mismatches(base_doc, cur_doc)
    for key, base_v, cur_v in mismatches:
        print(f"::notice title=bench context::context.{key} differs "
              f"(baseline {base_v!r}, current {cur_v!r}); cross-run "
              "timing deltas demoted to notices")

    if not baseline:
        print(f"compare_bench: no benchmarks in {args.baseline}; "
              "nothing to compare")
        return 0

    deltas = {}
    for name, base_ns in baseline.items():
        if name in current:
            deltas[name] = ((current[name] - base_ns) / base_ns
                            if base_ns > 0 else 0.0)
    drift = statistics.median(deltas.values()) if deltas else 0.0
    print(f"recording drift: {drift:+.1%} (median delta over {len(deltas)} "
          "matched benchmarks)")

    regressions = []
    width = max(len("benchmark"),
                *(len(name) for name in set(baseline) | set(current)))
    print(f"{'benchmark':<{width}}  {'base_ns':>12}  {'cur_ns':>12}  "
          f"{'delta':>7}  {'net':>7}")
    for name in sorted(baseline):
        base_ns = baseline[name]
        if name not in deltas:
            print(f"{name:<{width}}  {base_ns:>12.1f}  {'missing':>12}  -")
            regressions.append((name, None))
            continue
        delta = deltas[name]
        net = (1.0 + delta) / (1.0 + drift) - 1.0
        flag = " <-- regression" if delta > args.threshold else ""
        print(f"{name:<{width}}  {base_ns:>12.1f}  {current[name]:>12.1f}  "
              f"{delta:+7.1%}  {net:+7.1%}{flag}")
        if delta > args.threshold:
            regressions.append((name, delta))
    new_metrics = sorted(set(current) - set(baseline))
    for name in new_metrics:
        print(f"{name:<{width}}  {'new-metric':>12}  {current[name]:>12.1f}  -")
    for name in new_metrics:
        # ::notice renders as a non-failing annotation on GitHub Actions;
        # a new benchmark needs a baseline refresh, not a red build.
        print(f"::notice title=bench new-metric::{name}: present in current "
              "run but not in baseline (refresh the committed baseline to "
              "start gating it)")

    if regressions:
        level = "notice" if mismatches else "warning"
        for name, delta in regressions:
            detail = "missing from current run" if delta is None else \
                f"+{delta:.1%} real_time (threshold +{args.threshold:.0%})"
            # ::warning renders as an annotation on GitHub Actions and is
            # harmless noise everywhere else.
            print(f"::{level} title=bench regression::{name}: {detail}")
        print(f"compare_bench: {len(regressions)} regression(s) beyond "
              f"+{args.threshold:.0%}")
        return 1 if args.hard and not mismatches else 0
    extra = f", {len(new_metrics)} new-metric" if new_metrics else ""
    print("compare_bench: no regressions beyond "
          f"+{args.threshold:.0%} ({len(baseline)} benchmarks{extra})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
