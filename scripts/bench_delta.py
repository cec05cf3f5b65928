#!/usr/bin/env python3
"""Compare a CRITERION_JSON benchmark recording against a baseline.

Both files are JSON-lines as written by the vendored criterion shim:

    {"bench": "fig2_pipeline/synthetic_merge/10000", "median_ns": ..., "samples": ...}

Usage:

    python3 scripts/bench_delta.py BENCH_baseline.json new.json \
        [--threshold 1.25] [--groups solver fig2_pipeline]

Exit status is non-zero when any benchmark in the selected groups
regressed beyond the threshold (new_median > threshold * old_median),
or when a selected baseline benchmark is missing from the new recording.
Benchmarks only present in the new file are reported but never fail the
check (new benches are allowed to appear).

Within the new recording, `--min-speedup` gates a ratio between two
benchmarks and `--max-growth` gates a curve: how much a cost may grow
from one point of a parameterized benchmark to another.
"""

import argparse
import json
import sys


def load(path):
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            out[row["bench"]] = float(row["median_ns"])
    return out


def in_groups(name, groups):
    return any(name == g or name.startswith(g + "/") for g in groups)


def fmt_ns(ns):
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} µs"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when new > threshold * baseline (default 1.25)",
    )
    ap.add_argument(
        "--groups",
        nargs="+",
        default=["solver", "fig2_pipeline"],
        help="benchmark groups to gate on (default: solver fig2_pipeline)",
    )
    ap.add_argument(
        "--normalize-via",
        metavar="GROUP",
        default=None,
        help="divide every ratio by this control group's median new/old "
        "ratio, compensating for the recording machine being uniformly "
        "faster/slower than the baseline machine (a wholesale regression "
        "of the control group itself is masked — pick a group the change "
        "under test does not touch)",
    )
    ap.add_argument(
        "--min-speedup",
        nargs=3,
        metavar=("SLOW_PREFIX", "FAST_PREFIX", "FACTOR"),
        action="append",
        default=[],
        help="assert, within the NEW recording, that every benchmark under "
        "SLOW_PREFIX is at least FACTOR× slower than its FAST_PREFIX "
        "counterpart (matched by the suffix after the prefix; an exact "
        "bench name also matches, pairing with the exact FAST name). "
        "Used to gate e.g. query_optimization/full_scan vs .../planned "
        "at 2x, or a single parameterized size at a steeper factor.",
    )
    ap.add_argument(
        "--max-growth",
        nargs=3,
        metavar=("SMALL", "LARGE", "FACTOR"),
        action="append",
        default=[],
        help="assert, within the NEW recording, that the exact benchmark "
        "LARGE is at most FACTOR× slower than the exact benchmark SMALL "
        "(e.g. the same operation at 100k and at 1k objects); fails when "
        "either benchmark is missing. Gates a curve, so a cost linear in "
        "the store's size cannot pass at one point.",
    )
    ap.add_argument(
        "--expect",
        metavar="PREFIX",
        action="append",
        default=[],
        help="fail unless the NEW recording contains at least one benchmark "
        "under PREFIX. Benchmarks absent from the baseline never fail the "
        "delta check, so a renamed or silently dropped group would "
        "otherwise pass; --expect pins the groups that must exist.",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    new = load(args.new)
    failures = []

    for prefix in args.expect:
        if not any(in_groups(name, [prefix]) for name in new):
            failures.append(f"--expect {prefix}: no benchmark recorded under this prefix")

    speed = 1.0
    if args.normalize_via:
        ratios = sorted(
            new[name] / base[name]
            for name in base
            if in_groups(name, [args.normalize_via]) and name in new and base[name] > 0
        )
        if ratios:
            speed = ratios[len(ratios) // 2]
            print(f"machine-speed factor via {args.normalize_via}: {speed:.3f}x\n")

    for name in sorted(base):
        if not in_groups(name, args.groups):
            continue
        old_ns = base[name]
        if name not in new:
            failures.append(f"{name}: missing from new recording")
            print(f"MISSING {name:<55} baseline {fmt_ns(old_ns)}")
            continue
        new_ns = new[name]
        ratio = new_ns / old_ns / speed if old_ns > 0 else float("inf")
        status = "OK"
        if ratio > args.threshold:
            status = "REGRESSED"
            failures.append(f"{name}: {fmt_ns(old_ns)} -> {fmt_ns(new_ns)} ({ratio:.2f}x)")
        print(
            f"{status:<9} {name:<55} {fmt_ns(old_ns):>10} -> {fmt_ns(new_ns):>10}"
            f"  ({ratio:.2f}x)"
        )

    for name in sorted(set(new) - set(base)):
        if in_groups(name, args.groups):
            print(f"NEW       {name:<55} {'':>10} -> {fmt_ns(new[name]):>10}")

    for slow_prefix, fast_prefix, factor in args.min_speedup:
        factor = float(factor)
        pairs = 0
        for name in sorted(new):
            if name != slow_prefix and not name.startswith(slow_prefix + "/"):
                continue
            suffix = name[len(slow_prefix):]
            fast = fast_prefix + suffix
            if fast not in new:
                failures.append(f"{fast}: missing counterpart for {name}")
                continue
            pairs += 1
            ratio = new[name] / new[fast] if new[fast] > 0 else float("inf")
            ok = ratio >= factor
            status = "SPEEDUP" if ok else "TOO SLOW"
            print(
                f"{status:<9} {fast:<55} {fmt_ns(new[name]):>10} -> "
                f"{fmt_ns(new[fast]):>10}  ({ratio:.2f}x, need {factor:.2f}x)"
            )
            if not ok:
                failures.append(
                    f"{fast}: only {ratio:.2f}x faster than {name} (need {factor:.2f}x)"
                )
        if pairs == 0:
            failures.append(f"--min-speedup {slow_prefix}: no benchmarks matched")

    for small, large, factor in args.max_growth:
        factor = float(factor)
        missing = [name for name in (small, large) if name not in new]
        if missing:
            for name in missing:
                failures.append(f"--max-growth: {name} missing from new recording")
            continue
        growth = new[large] / new[small] if new[small] > 0 else float("inf")
        ok = growth <= factor
        status = "FLAT" if ok else "GROWS"
        print(
            f"{status:<9} {large:<55} {fmt_ns(new[small]):>10} -> "
            f"{fmt_ns(new[large]):>10}  ({growth:.2f}x, max {factor:.2f}x)"
        )
        if not ok:
            failures.append(
                f"{large}: {growth:.2f}x the cost of {small} (max {factor:.2f}x)"
            )

    if failures:
        print(f"\n{len(failures)} bench gate failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nAll gated benchmarks within {args.threshold:.2f}x of baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
