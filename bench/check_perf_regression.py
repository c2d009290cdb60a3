#!/usr/bin/env python3
"""Compare perf_suite runs of two builds made on one runner.

Usage: check_perf_regression.py BASE_DIR HEAD_DIR

Each directory holds one build's BENCH_perf.json runs (CI's perf-smoke
job runs tiny mode base, head, head, base). Per metric, each side keeps
its better run, direction-aware via the metric's higher_is_better flag:
single tiny runs of one build spread by up to 2x on a shared runner (the
event-queue churn metrics most), so a 2x rule on single runs would flake.

The check fails when a metric is more than 2x worse at head than at base,
or when the runs differ on hardware_concurrency or mode: such numbers are
not comparable. A metric present on only one side is listed and passes,
because the base is rebuilt on every run: a new or retired metric shows
up there and nowhere else.
"""
import argparse
import glob
import json
import os
import sys

# A metric fails when it is more than this many times worse at head.
FACTOR = 2.0


def load_doc(path: str) -> dict:
    """Reads {"metrics": {name: {"value": ...}}} with clear errors instead
    of KeyError tracebacks on malformed files."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if (not isinstance(doc, dict) or "metrics" not in doc
            or not isinstance(doc["metrics"], dict)):
        sys.exit(f"error: {path} has no top-level \"metrics\" object "
                 "(is it a BENCH_perf.json?)")
    for name, entry in doc["metrics"].items():
        if (not isinstance(entry, dict) or "value" not in entry
                or isinstance(entry["value"], bool)
                or not isinstance(entry["value"], (int, float))):
            sys.exit(f"error: metric \"{name}\" in {path} has no numeric "
                     "\"value\" field")
    return doc


def load_side(directory: str) -> list:
    """Every BENCH_perf.json run in `directory`, as (path, doc) pairs."""
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        sys.exit(f"error: no *.json runs in {directory}")
    return [(path, load_doc(path)) for path in paths]


def best_values(runs: list) -> dict:
    """Per metric, the side's better value over its runs, with the
    metric's direction: {name: (value, higher_is_better)}."""
    best = {}
    for _, doc in runs:
        for name, entry in doc["metrics"].items():
            higher = entry.get("higher_is_better", True)
            value = entry["value"]
            if name in best:
                pick = max if higher else min
                value = pick(value, best[name][0])
            best[name] = (value, higher)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", help="directory of the base build's runs")
    parser.add_argument("head", help="directory of the head build's runs")
    args = parser.parse_args(argv)

    base_runs = load_side(args.base)
    head_runs = load_side(args.head)

    status = 0
    for key in ("hardware_concurrency", "mode"):
        seen = {path: doc.get(key) for path, doc in base_runs + head_runs}
        if len(set(seen.values())) > 1:
            print(f"runs differ on {key}, so their numbers are not "
                  "comparable:", file=sys.stderr)
            for path, value in seen.items():
                print(f"  {path}: {value}", file=sys.stderr)
            status = 1

    base = best_values(base_runs)
    head = best_values(head_runs)
    failures = []
    print(f"{'metric':40} {'base':>12} {'head':>12}  verdict")
    for name in sorted(set(base) & set(head)):
        old, _ = base[name]
        new, higher = head[name]
        if old <= 0:
            verdict = "skipped (non-positive base)"
        elif not higher and new <= 0:
            # A zero wall-clock can only be timer resolution on a
            # degenerate run — never a regression, never divide by it.
            verdict = "skipped (non-positive head)"
        elif (new < old / FACTOR) if higher else (new > old * FACTOR):
            verdict = f"FAIL (>{FACTOR:.2g}x worse)"
            failures.append(name)
        else:
            ratio = new / old if higher else old / new
            verdict = f"ok ({ratio:.2f}x)"
        print(f"{name:40} {old:12.6g} {new:12.6g}  {verdict}")

    for side, names in (("base", set(base) - set(head)),
                        ("head", set(head) - set(base))):
        if names:
            print(f"only at {side} (listed, not compared): "
                  + ", ".join(sorted(names)))
    if failures:
        print(f"\nmore than {FACTOR:.2g}x worse at head: "
              + ", ".join(failures), file=sys.stderr)
        status = 1
    if status == 0:
        print("\nno perf regressions")
    return status


if __name__ == "__main__":
    sys.exit(main())
