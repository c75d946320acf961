#!/usr/bin/env python3
"""Alternating pairs of the repo benchmark on two checkouts.

    scripts/bench_pairs.py --parent DIR --change DIR --workload W [--pairs 10]
                           [--seed 1] [--seconds S] [--trace 0|1]

Runs `benchmark/run.py` in contract mode (one workload, one pass) on the
checkout of the parent commit and on the checkout of the change, `--pairs`
times each, alternating which side goes first. Each side runs the
`benchmark/` of its own checkout and builds into its own
`benchmark/target`, so neither disturbs the other's build.

For every metric the pass reports it prints either

* an exact row, when each side's value repeated exactly over its runs (the
  counts of a simulator workload do; one run a side shows nothing of the
  kind): only the ones on which the sides differ, and the names of the
  equal ones; or
* each side's median and quartiles over the runs, and in how many pairs
  the change read better, by the direction `BENCHMARK.json` gives the
  metric. `gain` marks what `benchmark/README.md` lets a change claim:
  the change better in at least nine tenths of the pairs, ties counting
  for neither, and the medians apart by more than the distance between
  the parent's quartiles.

Before the rows it prints each side's schedule identity: `first_exec`
(execution 1's sent count, steps and fingerprint, which depend on the seed
alone) from one shortest pass of that checkout's built
`benchmark/target/release/aft-benchmark`, and `DIFFERS` when the sides
disagree (not on the deployment, which has no fingerprint).

Exits nonzero when a run fails or the change fails a larger share of its
executions than the parent.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, args):
    """One contract-mode pass on `checkout`; returns its result object."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / "benchmark" / "target"))
    argv = [sys.executable, str(checkout / "benchmark" / "run.py")]
    argv += ["--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs.py: {' '.join(argv)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def schedule_identity(checkout, args):
    """`first_exec` of one shortest pass of the worker `run_once` built in
    `checkout`: its sent count, steps and fingerprint as a line, and the
    fingerprint (`None` when the pass failed)."""
    release = checkout / "benchmark" / "target" / "release"
    argv = [str(release / "aft-benchmark"), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--partyd", str(release / "aft-partyd")]
    # The worker takes no zero: the least positive time is one round of
    # its seed pool, execution 1 first.
    argv += ["--out", str(checkout / "benchmark" / "out"), "--seconds", "1e-9", "--trace", "0"]
    # In a process group of its own, reaped whole like `run.py` does, so
    # no daemon of a deployment workload outlives the pass.
    proc = subprocess.Popen(argv, cwd=checkout, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        return f"unknown: {' '.join(argv)} exited {proc.returncode}", None
    first = json.loads(stdout.strip().splitlines()[-1])["first_exec"]
    line = f"sent {first['sent']}  steps {first['steps']}  fingerprint {first['fingerprint']}"
    return line, first["fingerprint"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="per pass (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the per-layer pass")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args))
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first) done", file=sys.stderr)
        if not args.trace:
            # Every run of the measured pass, so a report can list them.
            for name in runs["parent"][-1]["metrics"]:
                a, b = (runs[side][-1]["metrics"][name]["value"] for side in sides)
                print(f"  {name:<18} parent {a:.6g}  change {b:.6g}", file=sys.stderr)

    print(f"{args.workload}  seed {args.seed}  {args.seconds:g} s per pass  "
          f"trace {args.trace}  {args.pairs} pairs")
    share = {}
    for side, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        share[side] = failed / attempted if attempted else 1.0
        print(f"  {side:<6} {sides[side]}: {attempted} executions, {failed} failed")

    identity = {side: schedule_identity(sides[side], args) for side in sides}
    # A deployment's counts are OS-scheduled, and it reports no
    # fingerprint (zero): there is no schedule to compare.
    compared = all(fp and int(fp, 16) for _, fp in identity.values())
    differs = compared and identity["parent"] != identity["change"]
    for side, (line, _) in identity.items():
        print(f"  {side:<6} first_exec: {line}{'  DIFFERS' if differs else ''}")

    equal_exact = []
    rows = []
    for name in runs["parent"][0]["metrics"]:
        unit = runs["parent"][0]["metrics"][name]["unit"]
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        if args.pairs > 1 and len(set(a)) == 1 and len(set(b)) == 1:
            if a[0] == b[0]:
                equal_exact.append(name)
            else:
                print(f"  exact  {name:<36} parent {a[0]:.10g}  change {b[0]:.10g}  {unit}  DIFFERS")
            continue
        sign = -1 if better[name] == "higher" else 1
        wins = sum(sign * y < sign * x for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        gain = wins >= 0.9 * args.pairs and sign * (am - bm) > a3 - a1
        change = f"{(bm - am) / am:+.1%}" if am else "n/a"
        rows.append(
            f"  {name:<36} parent {am:.6g} [{a1:.6g}, {a3:.6g}]  change {bm:.6g} "
            f"[{b1:.6g}, {b3:.6g}] {unit}  {change}  change better in {wins}/{args.pairs}, "
            f"{ties} ties{'  gain' if gain else ''}"
        )
    print(f"  {len(equal_exact)} metrics repeated exactly and are equal on both sides:")
    print(f"    {' '.join(equal_exact)}")
    print(f"  the others, as median [q1, q3] over each side's {args.pairs} runs:")
    for row in rows:
        print(row)
    if share["change"] > share["parent"]:
        print("  the change fails a larger share of its executions")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
