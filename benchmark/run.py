#!/usr/bin/env python3
"""The repo benchmark's one command.

Contract mode (what BENCHMARK.json's `command` runs): one workload, one pass.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

builds the worker and `aft-partyd` from source, measures, checks every
execution, and prints as the last line of stdout one JSON object with
exactly the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

Suite mode (no `--trace`): every workload, or the one named, measured pass
then traced pass, a table of every metric, and `benchmark/out/<workload>.json`
plus `benchmark/out/summary.json` for `compare.py`.

    python3 benchmark/run.py [--seed N] [--workload W] [--seconds S] [--quick]

Exit status is nonzero when a build, a run or any correctness check fails.
"""

import argparse
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# One run must fit the harness's 180 s cap with room to print.
RUN_TIMEOUT_S = 170


def child_env(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # The daemon path is always passed explicitly, never inherited.
    env.pop("AFT_PARTYD", None)
    return env


@functools.cache
def build():
    """Builds both binaries offline, into `$CARGO_TARGET_DIR` or
    `benchmark/target`; returns (worker, partyd, environment for children)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target").resolve()
    env = child_env(target)
    for manifest, extra in (
        (HERE / "Cargo.toml", []),
        (ROOT / "Cargo.toml", ["-p", "aft-bench", "--bin", "aft-partyd"]),
    ):
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet"]
            + ["--manifest-path", str(manifest)]
            + extra,
            env=env,
            stdout=sys.stderr,
            check=True,
        )
    release = target / "release"
    return release / "aft-benchmark", release / "aft-partyd", env


def run_worker(argv, env):
    """Runs the worker in its own process group and reaps the whole group,
    so no daemon of a crashed run outlives it. Returns its stdout. (The
    pipe also makes `communicate` return when the worker exits: without
    one it polls in steps of up to 50 ms, which would quantise `setup_s`.)"""
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {' '.join(map(str, argv))} exited {proc.returncode}")
    return stdout


def cold_starts(base, env):
    """Set-up time: process start, codec and attack registration and (on
    the simulator workloads) one warm-up execution, from launch to exit.
    One cold start is a single noisy sample, so they repeat for about a
    second, at least 3 of them."""
    samples = []
    while len(samples) < 3 or sum(samples) < 1.0:
        t0 = time.perf_counter()
        run_worker(base + ["--setup-only"], env)
        samples.append(time.perf_counter() - t0)
    return samples


def run_pass(workload, seed, seconds, trace):
    """One workload, one pass. Returns the contract result plus `samples`
    (the values behind each metric, for quartiles)."""
    worker, partyd, env = build()
    base = [str(worker), "--workload", workload, "--seed", str(seed)]
    base += ["--partyd", str(partyd), "--out", str(OUT)]
    samples = {}
    # Cold starts on both sides of the pass: a burst of interference from
    # the neighbours lasts seconds, and should not cover all of them.
    if not trace:
        samples["setup_s"] = cold_starts(base, env)
    stdout = run_worker(base + ["--seconds", str(seconds), "--trace", str(trace)], env)
    if not trace:
        samples["setup_s"] += cold_starts(base, env)
    report = json.loads(stdout.strip().splitlines()[-1])
    metrics = report["metrics"]
    samples.update(report["samples"])
    if not trace:
        # The same work every time, so what differs is what the machine's
        # other tenants took away: the fastest says most about the program.
        metrics["setup_s"] = {"value": min(samples["setup_s"]), "unit": "s"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != declared:
        odd = sorted(set(reported.items()) ^ set(declared.items()))
        raise SystemExit(f"run.py: metrics differ from BENCHMARK.json: {odd}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
        "samples": samples,
        "first_exec": report.get("first_exec"),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def suite(args):
    names = [args.workload] if args.workload else WORKLOADS
    seconds = 1 if args.quick else args.seconds
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["per_layer"]}
    summary = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    failed = 0
    OUT.mkdir(exist_ok=True)
    for name in names:
        measured = run_pass(name, args.seed, seconds, 0)
        traced = run_pass(name, args.seed, seconds, 1)
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": seconds,
            "ops_attempted": measured["attempted"] + traced["attempted"],
            "ops_failed": measured["failed"] + traced["failed"],
            "first_exec": measured["first_exec"],
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"\n== {name}  (seed {args.seed}, {seconds} s per pass)")
        print(f"   ops_attempted {record['ops_attempted']}  ops_failed {record['ops_failed']}")
        for metric, m in measured["metrics"].items():
            values = measured["samples"].get(metric, [m["value"]])
            q1, q3 = quartiles(values)
            record["end_to_end"][metric] = dict(
                m, better=bounds[metric]["better"], bound=bounds[metric]["bound"],
                n=len(values), q1=q1, q3=q3,
            )
            print(
                f"   {metric:<34} {m['value']:>16.4f} {m['unit']:<6} "
                f"[{q1:.4f}, {q3:.4f}] n={len(values)}  {bounds[metric]['better']} is better"
            )
        for metric, m in traced["metrics"].items():
            record["per_layer"][metric] = dict(m, better=better[metric])
            print(f"   {metric:<34} {m['value']:>16.4f} {m['unit']}")
        print(f"   trace: {OUT / (name + '.trace.json')}")
        (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        summary["workloads"][name] = record
        failed += record["ops_failed"]
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsummary: {OUT / 'summary.json'}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="suite mode: 1 s per pass")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**50:
        parser.error("--seed must be in [0, 2^50)")
    if args.trace is None:
        return suite(args)
    if not args.workload:
        parser.error("--trace needs --workload")
    result = run_pass(args.workload, args.seed, args.seconds, args.trace)
    del result["samples"], result["first_exec"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.SubprocessError as e:
        sys.exit(f"run.py: {e}")
