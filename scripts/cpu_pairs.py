#!/usr/bin/env python3
"""User+sys CPU time of single executions on two checkouts, alternated.

    scripts/cpu_pairs.py --parent DIR --change DIR --workload W [--rounds 100]

Runs `aft-benchmark --workload W --seed 1 --setup-only` — a process that
sets the workload up and runs one execution — from each checkout's
`benchmark/target/release`, alternating which side goes first, `--rounds`
times a side, and prints each side's user+sys CPU time per process at the
minimum, p10, q1 and median. Build each side first (`benchmark/run.py`
does, into that checkout's `benchmark/target`).

Alternating 22 s passes of `scripts/bench_pairs.py` cannot resolve a 2 %
change on a small shared machine; the low quantiles of a hundred processes'
CPU time can. For diagnosis only: CI does not run it.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def cpu_ms(release, workload, out):
    """User+sys CPU of one `--setup-only` process, in milliseconds."""
    argv = [str(release / "aft-benchmark"), "--workload", workload, "--seed", "1",
            "--partyd", str(release / "aft-partyd"), "--out", out, "--setup-only"]
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.exit(f"cpu_pairs.py: {' '.join(argv)} exited {child.returncode}")
    return (usage.ru_utime + usage.ru_stime) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=100, help="processes a side")
    args = parser.parse_args()
    sides = {side: getattr(args, side).resolve() / "benchmark" / "target" / "release"
             for side in ("parent", "change")}
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as out:
        for round_ in range(args.rounds):
            order = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
            for side in order:
                times[side].append(cpu_ms(sides[side], args.workload, out))
    print(f"{args.workload}  {args.rounds} processes a side  user+sys ms per process")
    p10 = {}
    for side, ms in times.items():
        ms.sort()
        p10[side] = ms[len(ms) // 10]
        q1, median, _ = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
        print(f"  {side:<6}  min {ms[0]:.2f}  p10 {p10[side]:.2f}  q1 {q1:.2f}  median {median:.2f}")
    print(f"  change at p10: {(p10['change'] - p10['parent']) / p10['parent']:+.1%}")


if __name__ == "__main__":
    main()
