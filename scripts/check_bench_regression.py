#!/usr/bin/env python3
"""Diff a criterion BENCH_JSON summary against the committed baseline.

Usage: check_bench_regression.py <baseline.json> <current.json>

Fails (exit 1) when any *guarded* benchmark — the delivery hot path —
regresses by more than the threshold (default 25%, override with
BENCH_REGRESSION_THRESHOLD, e.g. 1.25). Other benchmarks are reported
but only warn.

Medians are compared, and each benchmark's baseline/current ratio is
normalized by the median ratio across the whole suite: the baseline was
recorded on the committing machine, so a runner that is uniformly 2x
faster or slower shifts every ratio equally and cancels out, while a
genuine hot-path regression shows up as an outlier against the rest of
the suite. Because a change that slows the *entire* suite uniformly
would cancel out too, guarded benches additionally fail on a generous
absolute ratio (default 3x, override with BENCH_ABSOLUTE_CAP) — wide
enough to absorb machine-class differences, tight enough to catch a
catastrophic regression (the pre-Fenwick queue was 50x+).

Guarded benches are the millisecond-scale end-to-end delivery runs,
the codec round trip, and the session-intern microbench (tight-loop
and low-variance enough to gate). The remaining nanosecond
microbenches (delivery/*) and the core-count-sensitive sweeps
(ba_sweep_n64/*, ba_sweep_n256/*) are reported but warn-only, since
their run-to-run variance on shared runners exceeds any sane
threshold.

A Markdown improvement/regression table is printed after the plain
report and, when GITHUB_STEP_SUMMARY is set (as in CI), appended to the
job summary so the diff is readable straight from the run page.
"""

import json
import os
import statistics
import sys

# The delivery hot path: end-to-end runs dominated by enqueue/pick/deliver
# work, at millisecond scale (stable on shared runners), plus the typed
# wire codec round trip and the session-intern path (both tight-loop and
# low-variance, and every backend's message/spawn path goes through them).
GUARDED_PREFIXES = (
    "acast/full_run",
    "ba/split_inputs",
    "codec/encode_decode",
    "session_id/child_intern",
    # The flight recorder's disabled fast path: a BA run through the
    # fully instrumented pipeline with tracing off must stay within the
    # gate, pinning "tracing costs ~nothing when disabled".
    "trace/off_overhead",
)


def load(path):
    with open(path) as f:
        return {b["name"]: b for b in json.load(f)["benchmarks"]}


def fmt_ns(ns):
    """Human-scaled duration."""
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} µs"
    return f"{ns:.0f} ns"


def markdown_table(rows, suite_ratio, threshold):
    """Build the Markdown improvement/regression table."""
    lines = [
        "## Bench diff vs committed baseline",
        "",
        f"Suite-wide median ratio (machine-speed normalizer): "
        f"**{suite_ratio:.2f}×** — per-bench deltas below are normalized "
        f"by it; guarded benches fail beyond {threshold:.2f}×.",
        "",
        "| benchmark | baseline | current | normalized Δ | status |",
        "|---|---:|---:|---:|:---:|",
    ]
    for name, base_ns, cur_ns, normalized, guarded, failed in rows:
        if cur_ns is None:
            status = "❌ missing" if failed else "⚠️ missing"
            if guarded:
                status += " (guarded)"
            lines.append(f"| `{name}` | {fmt_ns(base_ns)} | — | — | {status} |")
            continue
        delta_pct = (normalized - 1.0) * 100.0
        if failed:
            status = "❌ regression"
        elif normalized > 1.05:
            status = "⚠️ slower"
        elif normalized < 0.95:
            status = "✅ faster"
        else:
            status = "· unchanged"
        if guarded:
            status += " (guarded)"
        lines.append(
            f"| `{name}` | {fmt_ns(base_ns)} | {fmt_ns(cur_ns)} "
            f"| {delta_pct:+.1f}% | {status} |"
        )
    return "\n".join(lines) + "\n"


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    baseline = load(sys.argv[1])
    current = load(sys.argv[2])
    threshold = float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "1.25"))
    absolute_cap = float(os.environ.get("BENCH_ABSOLUTE_CAP", "3.0"))

    ratios = {
        name: current[name]["median_ns"] / base["median_ns"]
        for name, base in baseline.items()
        if name in current
    }
    suite_ratio = statistics.median(ratios.values()) if ratios else 1.0
    print(f"suite-wide median ratio (machine-speed normalizer): {suite_ratio:.2f}\n")

    failures = []
    table_rows = []
    for name, base in sorted(baseline.items()):
        guarded = name.startswith(GUARDED_PREFIXES)
        cur = current.get(name)
        if cur is None:
            msg = f"{name}: present in baseline but missing from current run"
            if guarded:
                failures.append(msg)
            else:
                print(f"warn: {msg}")
            table_rows.append((name, base["median_ns"], None, None, guarded, guarded))
            continue
        normalized = ratios[name] / suite_ratio
        marker = "GUARDED" if guarded else "       "
        print(
            f"{marker} {name:<40} baseline {base['median_ns']:>14.1f} ns"
            f"  current {cur['median_ns']:>14.1f} ns"
            f"  ratio {ratios[name]:5.2f}  normalized {normalized:5.2f}"
        )
        regressed = None
        if normalized > threshold:
            regressed = (
                f"{name}: {normalized:.2f}x slower than the suite-normalized "
                f"baseline (threshold {threshold:.2f}x)"
            )
        elif ratios[name] > absolute_cap:
            regressed = (
                f"{name}: {ratios[name]:.2f}x slower than baseline in absolute "
                f"terms (cap {absolute_cap:.2f}x)"
            )
        failed = False
        if regressed:
            if guarded:
                failures.append(regressed)
                failed = True
            else:
                print(f"warn: {regressed}")
        table_rows.append(
            (name, base["median_ns"], cur["median_ns"], normalized, guarded, failed)
        )
    for name in sorted(set(current) - set(baseline)):
        print(f"note: new benchmark without baseline: {name}")

    table = markdown_table(table_rows, suite_ratio, threshold)
    print("\n" + table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(table + "\n")

    if failures:
        print("\nbench regression check FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
