#!/usr/bin/env python3
"""Validator for the embedded /metrics Prometheus exposition (DESIGN.md §16).

Usage: check_exposition.py METRICS.txt
       check_exposition.py --url http://127.0.0.1:PORT

Checks the text format the liveops endpoint serves: every sample line
parses, every metric family has exactly one `# TYPE` header before its
first sample, metric and label names are legal, histogram `_bucket`
series are cumulative in `le` order with an `+Inf` bucket equal to
`_count`, and `_sum`/`_count` are present for every histogram family.
Exits nonzero on any violation.  Stdlib only — runs anywhere CI has a
python3 (urllib is used only for the --url form).
"""
import argparse
import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: \d+)?$")
LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

errors = []


def check(ok, message):
    if not ok:
        errors.append(message)
    return ok


def parse_value(text, where):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        check(False, f"{where}: unparsable value {text!r}")
        return None


def family_of(name):
    """Strip the histogram sample suffix to get the TYPE-header family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_exposition(text):
    types = {}        # family -> declared type
    samples = []      # (name, labels-dict, value, line_no)
    seen_families = set()
    for line_no, line in enumerate(text.splitlines(), 1):
        where = f"line {line_no}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if not check(len(parts) == 4, f"{where}: malformed TYPE header"):
                continue
            family, kind = parts[2], parts[3]
            check(NAME_RE.match(family) is not None,
                  f"{where}: illegal family name {family!r}")
            check(kind in ("counter", "gauge", "histogram", "summary",
                           "untyped"),
                  f"{where}: unknown type {kind!r}")
            check(family not in types,
                  f"{where}: duplicate TYPE header for {family!r}")
            check(family not in seen_families,
                  f"{where}: TYPE header after samples of {family!r}")
            types[family] = kind
            continue
        if line.startswith("#"):
            continue  # HELP and comments are free-form
        m = SAMPLE_RE.match(line)
        if not check(m is not None, f"{where}: unparsable sample {line!r}"):
            continue
        name = m.group("name")
        labels = {}
        raw = m.group("labels")
        if raw:
            consumed = 0
            for lm in LABEL_PAIR_RE.finditer(raw):
                labels[lm.group(1)] = lm.group(2)
                consumed = lm.end()
            leftover = raw[consumed:].strip().strip(",")
            check(not leftover,
                  f"{where}: unparsable label text {leftover!r}")
            for key in labels:
                check(LABEL_RE.match(key) is not None,
                      f"{where}: illegal label name {key!r}")
        value = parse_value(m.group("value"), where)
        family = family_of(name)
        seen_families.add(family)
        check(family in types,
              f"{where}: sample {name!r} has no TYPE header for "
              f"family {family!r}")
        samples.append((name, labels, value, line_no))

    # Histogram invariants: cumulative buckets, +Inf == _count, and the
    # _sum/_count companions present.
    for family, kind in types.items():
        rows = [s for s in samples if family_of(s[0]) == family]
        check(bool(rows), f"family {family!r}: TYPE header but no samples")
        if kind != "histogram":
            for name, labels, _, line_no in rows:
                check("le" not in labels,
                      f"line {line_no}: 'le' label on non-histogram "
                      f"{name!r}")
            continue
        buckets = [s for s in rows if s[0] == family + "_bucket"]
        sums = [s for s in rows if s[0] == family + "_sum"]
        counts = [s for s in rows if s[0] == family + "_count"]
        check(len(sums) == 1, f"family {family!r}: want exactly one _sum")
        check(len(counts) == 1, f"family {family!r}: want exactly one _count")
        check(bool(buckets), f"family {family!r}: no _bucket samples")
        bounds = []
        for name, labels, value, line_no in buckets:
            if not check("le" in labels,
                         f"line {line_no}: _bucket without an le label"):
                continue
            le = parse_value(labels["le"], f"line {line_no} (le)")
            bounds.append((le, value, line_no))
        prev_le, prev_cum = -math.inf, -1.0
        for le, cum, line_no in bounds:
            if le is None or cum is None:
                continue
            check(le > prev_le,
                  f"line {line_no}: le={le} not increasing (prev {prev_le})")
            check(cum >= prev_cum,
                  f"line {line_no}: bucket {cum} not cumulative "
                  f"(prev {prev_cum})")
            prev_le, prev_cum = le, cum
        if bounds:
            check(bounds[-1][0] == math.inf,
                  f"family {family!r}: last bucket le={bounds[-1][0]}, "
                  f"want +Inf")
            if counts and counts[0][2] is not None:
                check(bounds[-1][1] == counts[0][2],
                      f"family {family!r}: +Inf bucket {bounds[-1][1]} != "
                      f"_count {counts[0][2]}")
    return len(types), len(samples)


def fetch(url):
    import urllib.request
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode("utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", nargs="?",
                        help="saved /metrics body (text format)")
    parser.add_argument("--url", help="fetch /metrics from a live endpoint")
    args = parser.parse_args()

    if args.url:
        text = fetch(args.url.rstrip("/") + "/metrics")
    elif args.metrics:
        with open(args.metrics, encoding="utf-8") as f:
            text = f.read()
    else:
        parser.error("need a METRICS.txt path or --url")
    families, samples = check_exposition(text)

    if errors:
        print(f"check_exposition: FAILED ({len(errors)} violation(s)):")
        for message in errors:
            print(f"  - {message}")
        return 1
    print(f"check_exposition: OK (families={families}, samples={samples})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
