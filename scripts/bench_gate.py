#!/usr/bin/env python3
"""Bench regression gate: fresh medians vs the committed BENCH_*.json.

Usage:
    bench_gate.py COMMITTED.json FRESH.json [--threshold 4.0] [--name kernel]
                  [--ratio 'NUM:DEN<=X' ...]
    bench_gate.py RESULTS.json --ratio 'NUM:DEN<=X' [--ratio ...] [--name kernel]

Compares per-benchmark medians between a committed baseline (the
repository's BENCH_*.json, measured on a quiet dev box with full sample
counts) and a fresh run (typically quick-mode on a noisy shared CI
runner, via SIMCAL_BENCH_JSON=... SIMCAL_BENCH_QUICK=1 cargo bench).

The threshold is deliberately generous: CI machines differ from the
baseline box in clock speed, cache size, and noise floor, so the gate
only catches *order-of-magnitude-ish* regressions — an accidental
O(n log n) -> O(n^2), a debug assert in a hot loop — not single-digit
drift. Benchmarks present on only one side are reported but never fail
the gate (new benches land before their baseline; retired ones linger
until the JSON is re-recorded).

A `--ratio NUM:DEN<=X` gate compares two medians of the *same* run (the
fresh file, or the only file given): median(NUM) / median(DEN) must not
exceed X. Both sides ran on one machine minutes apart, so the bound is
machine-independent and can be tight where the absolute threshold cannot —
e.g. `engine_rerate_storm/256f:engine_rerate_storm/16f<=6` pins how the
re-rate path scales with the population, whatever the runner's clock.

Exit status: 0 = every shared benchmark within threshold and every ratio
within its bound, 1 = regression, 2 = bad invocation / unreadable input.
"""

import json
import re
import sys


def load_medians(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench-gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for rec in doc.get("results", []):
        out[rec["id"]] = float(rec["median_ns"])
    if not out:
        print(f"bench-gate: {path} holds no results", file=sys.stderr)
        sys.exit(2)
    return out


def check_ratios(label, medians, ratios):
    """Print each same-run ratio; return the `(spec, value)` pairs past their bound."""
    failures = []
    for spec in ratios:
        m = re.fullmatch(r"(.+):(.+)<=([0-9.]+)", spec)
        if not m or m.group(1) not in medians or m.group(2) not in medians:
            print(f"bench-gate[{label}]: bad --ratio {spec!r} (want NUM:DEN<=X over ids of the run)",
                  file=sys.stderr)
            sys.exit(2)
        num, den, bound = medians[m.group(1)], medians[m.group(2)], float(m.group(3))
        value = num / den if den > 0 else float("inf")
        status = "FAIL" if value > bound else "ok"
        print(f"bench-gate[{label}]: {status:4} ratio {m.group(1)} : {m.group(2)} = "
              f"{value:.2f} (bound {bound:g})")
        if value > bound:
            failures.append((spec, value))
    return failures


def main(argv):
    args = []
    threshold = 4.0
    name = None
    ratios = []
    it = iter(argv)
    for a in it:
        if a == "--ratio":
            ratios.append(next(it, ""))
        elif a == "--threshold":
            try:
                threshold = float(next(it))
            except (StopIteration, ValueError):
                threshold = float("nan")
        elif a == "--name":
            name = next(it, None)
        else:
            args.append(a)
    if len(args) == 1 and ratios:
        label = name or args[0]
        failed = check_ratios(label, load_medians(args[0]), ratios)
        sys.exit(1 if failed else 0)
    if len(args) != 2 or not threshold > 1.0:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    committed, fresh = load_medians(args[0]), load_medians(args[1])
    label = name or args[0]

    shared = sorted(set(committed) & set(fresh))
    only_committed = sorted(set(committed) - set(fresh))
    only_fresh = sorted(set(fresh) - set(committed))
    for bench in only_committed:
        print(f"bench-gate[{label}]: note: {bench!r} in baseline only (not run fresh)")
    for bench in only_fresh:
        print(f"bench-gate[{label}]: note: {bench!r} is new (no committed baseline)")
    if not shared:
        print(f"bench-gate[{label}]: no shared benchmarks to compare", file=sys.stderr)
        sys.exit(2)

    failures = []
    for bench in shared:
        base, now = committed[bench], fresh[bench]
        ratio = now / base if base > 0 else float("inf")
        status = "FAIL" if ratio > threshold else "ok"
        print(
            f"bench-gate[{label}]: {status:4} {bench:<50} "
            f"{base / 1e6:10.3f} ms -> {now / 1e6:10.3f} ms  ({ratio:5.2f}x)"
        )
        if ratio > threshold:
            failures.append((bench, ratio))
    failures += check_ratios(label, fresh, ratios)
    if failures:
        print(
            f"bench-gate[{label}]: {len(failures)} gate(s) failed (a benchmark past "
            f"{threshold:.1f}x its committed median, or a same-run ratio past its bound):",
            file=sys.stderr,
        )
        for bench, ratio in failures:
            print(f"  {bench}: {ratio:.2f}x", file=sys.stderr)
        sys.exit(1)
    print(f"bench-gate[{label}]: {len(shared)} benchmark(s) within {threshold:.1f}x")


if __name__ == "__main__":
    main(sys.argv[1:])
