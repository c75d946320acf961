#!/usr/bin/env bash
# exp-smoke: runs every claim of exp_claims (the paper's tables, E1–E10),
# so that none can rot behind a green build. Each claim runs twice at
# AFT_TRIALS=2 on the simulator and must print byte-identical stdout,
# then once with --json, every line of which must parse. Both runs of a
# claim that takes --trace also capture one, and the two JSONL files
# must be byte-identical too: the capture is the first row's seed-0 run,
# whichever trial thread starts first. Last, exp_claims with no ids must
# print the claims' outputs back to back, so no claim leaks state (its
# backend counter totals, say) into the next.
#
# usage: scripts/exp_smoke.sh [dir with the release binaries]
set -euo pipefail
bin=${1:-target/release}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export AFT_TRIALS=2

ids=(thm2.2 thm3.5-bias thm3.5-termination thm4.3 thm4.5 def3.4 def3.2-shunning
    ba-coin-gap alg1-ablation ba-tail)

# Masks one claim's stdout where it is not a function of the seeds.
mask() {
    case $1 in
        # (d)'s `wall time` cell is read off the clock.
        alg1-ablation) sed -E 's/\| [0-9.]+(ns|µs|ms|s) \|$/| - |/' ;;
        # The `threaded` row is scheduled by the OS, and the claim's own
        # counter table below it includes that row's runs.
        ba-tail) sed -E -e '/^\| threaded \|/d' -e '/^### backend counters/,/^\| [0-9]/d' ;;
        *) cat ;;
    esac
}

for id in "${ids[@]}"; do
    flags=(--runtime sim)
    traced=1
    case $id in
        thm2.2) flags=() traced=0 ;;
        ba-tail) flags=() ;;
    esac
    echo "exp-smoke: $id ${flags[*]}"
    for run in a b; do
        trace=()
        if ((traced)); then trace=(--trace "$tmp/$run.jsonl"); fi
        "$bin/exp_claims" "$id" "${flags[@]}" "${trace[@]}" | mask "$id" >"$tmp/$id.$run"
    done
    cmp "$tmp/$id.a" "$tmp/$id.b"
    if ((traced)); then cmp "$tmp/a.jsonl" "$tmp/b.jsonl"; fi
    "$bin/exp_claims" "$id" "${flags[@]}" --json |
        python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin]'
done

echo "exp-smoke: every claim in one run"
"$bin/exp_claims" >"$tmp/all"
csplit -s -z -f "$tmp/part" "$tmp/all" '/^# E[0-9]* — /' '{*}'
parts=("$tmp"/part*)
if ((${#parts[@]} != ${#ids[@]})); then
    echo "exp-smoke: ${#parts[@]} claims ran, not ${#ids[@]}" >&2
    exit 1
fi
for i in "${!ids[@]}"; do
    mask "${ids[$i]}" <"$tmp/part$(printf %02d "$i")"
done >"$tmp/all.masked"
for id in "${ids[@]}"; do cat "$tmp/$id.a"; done >"$tmp/each"
cmp "$tmp/each" "$tmp/all.masked"
