#!/usr/bin/env bash
# exp-smoke: runs every table-printing exp_* binary that has no CI job of
# its own, so that none can rot behind a green build. Each runs twice at
# AFT_TRIALS=2 on the simulator and must print byte-identical stdout,
# then once with --json, every line of which must parse. Both runs of a
# binary that takes --trace also capture one, and the two JSONL files
# must be byte-identical too: the capture is the first row's seed-0 run,
# whichever trial thread starts first.
#
# usage: scripts/exp_smoke.sh [dir with the release binaries]
set -euo pipefail
bin=${1:-target/release}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export AFT_TRIALS=2

for exp in exp_lowerbound exp_coin_bias exp_coin_termination exp_fair_choice \
    exp_fba_fairness exp_common_subset exp_shunning exp_ba_baselines \
    exp_coin_ablation exp_termination_tail; do
    flags=(--runtime sim)
    mask=()
    traced=1
    case $exp in
        exp_lowerbound) flags=() traced=0 ;;
        # (d)'s `wall time` cell is read off the clock.
        exp_coin_ablation) mask=(-e 's/\| [0-9.]+(ns|µs|ms|s) \|$/| - |/') ;;
        # The `threaded` row is scheduled by the OS, and the counter
        # totals below the tables include it.
        exp_termination_tail)
            flags=()
            mask=(-e '/^\| threaded \|/d' -e '/^### backend counters/,$d')
            ;;
    esac
    echo "exp-smoke: $exp ${flags[*]}"
    for run in a b; do
        trace=()
        if ((traced)); then trace=(--trace "$tmp/$run.jsonl"); fi
        "$bin/$exp" "${flags[@]}" "${trace[@]}" | sed -E "${mask[@]}" -e '' >"$tmp/$run"
    done
    cmp "$tmp/a" "$tmp/b"
    if ((traced)); then cmp "$tmp/a.jsonl" "$tmp/b.jsonl"; fi
    "$bin/$exp" "${flags[@]}" --json |
        python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin]'
done
