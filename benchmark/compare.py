#!/usr/bin/env python3
"""Compares two benchmark result files, A (before) against B (after).

    python3 benchmark/compare.py A.json B.json

A and B are `benchmark/out/summary.json` (all workloads) or
`benchmark/out/<workload>.json` files written by `run.py` in suite mode.
Prints one row per (end-to-end metric, workload) with the bound that
`BENCHMARK.json` fixes for the metric:

* `ok`          B is no worse than A by more than the bound;
* `REGRESSION`  B is worse than A by more than the bound;
* `unresolved`  A's or B's own spread is wider than the bound, so the two
                values cannot be told apart. The spread of a value taken
                over n samples (one per seed of the pool, or one per cold
                start) is the distance between their quartiles divided by
                sqrt(n), as a share of the value.

When both files used the same seed, execution 1 ran the same inputs on both
sides, and on the simulator workloads its message count, step count and
fingerprint repeat exactly: these rows have an exact bound (more messages
regress; a changed fingerprint is reported, since an engine-only change
must keep it). Exits nonzero on a regression, or when B fails a larger
share of its operations than A.
"""

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def workloads(path):
    data = json.loads(Path(path).read_text())
    return data["workloads"] if "workloads" in data else {data["workload"]: data}


def spread(m):
    return (m["q3"] - m["q1"]) / m["n"] ** 0.5 / m["value"] if m["value"] else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a_all, b_all = workloads(sys.argv[1]), workloads(sys.argv[2])
    bad = 0
    print(f"{'workload':<20} {'metric':<18} {'A':>14} {'B':>14} {'change':>9} {'bound':>6}  verdict")
    for name in a_all.keys() & b_all.keys():
        a, b = a_all[name], b_all[name]
        for spec in SPEC["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            ma, mb = a["end_to_end"][metric], b["end_to_end"][metric]
            change = (mb["value"] - ma["value"]) / ma["value"]
            worse = change if spec["better"] == "lower" else -change
            if max(spread(ma), spread(mb)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                bad += 1
            else:
                verdict = "ok"
            print(
                f"{name:<20} {metric:<18} {ma['value']:>14.4f} {mb['value']:>14.4f} "
                f"{change:>+9.2%} {bound:>6.0%}  {verdict}"
            )
        fa, fb = a.get("first_exec"), b.get("first_exec")
        if fa and fb and a["seed"] == b["seed"] and name != "deploy-ba-n4":
            for key in ("sent", "steps"):
                verdict = "ok" if fb[key] <= fa[key] else "REGRESSION"
                bad += verdict != "ok"
                change = (fb[key] - fa[key]) / fa[key]
                print(
                    f"{name:<20} {'first_exec.' + key:<18} {fa[key]:>14} {fb[key]:>14} "
                    f"{change:>+9.2%} {'exact':>6}  {verdict}"
                )
            same = "same" if fa["fingerprint"] == fb["fingerprint"] else "CHANGED"
            print(f"{name:<20} {'first_exec.fingerprint':<18} {fa['fingerprint']:>14} {fb['fingerprint']:>14}  {same}")
        fail_a = a["ops_failed"] / a["ops_attempted"]
        fail_b = b["ops_failed"] / b["ops_attempted"]
        verdict = "ok"
        if fail_b > fail_a:
            verdict = "REGRESSION"
            bad += 1
        print(f"{name:<20} {'ops_failed share':<18} {fail_a:>14.4f} {fail_b:>14.4f} {'':>9} {'exact':>6}  {verdict}")
    only = a_all.keys() ^ b_all.keys()
    if only:
        print(f"not in both files, skipped: {', '.join(sorted(only))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
