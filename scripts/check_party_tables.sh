#!/usr/bin/env bash
# party-tables: protocol state keyed by party lives in `aft_sim::PartySet` /
# `PartyMap` (bit rows and party-indexed vectors, iterated in party order).
# A `HashMap` / `HashSet` / `BTreeSet` keyed by `PartyId` or `usize` in the
# protocol crates is that state creeping back: a SipHash probe per vote, and
# an emission order that has to be repaired by collect-and-sort.
#
# Fails on any such collection in crates/{svss,ba,broadcast,core}/src. One
# that is legitimately not keyed by a party is listed in `allowed` by
# file:line-content — by name, so that a second one is a conscious edit
# here, not a pattern that happened to match.
#
# usage: scripts/check_party_tables.sh   (from the repository root)
set -euo pipefail

# None today. (`WeakCoinMsg::Gather` is a strictly ascending `Vec<usize>`;
# `BinaryBa::rounds` is keyed by round number, a `u64`; `Fba`'s majority
# count is keyed by value.)
allowed=()

hits=$(grep -rnE 'Hash(Map|Set)<(PartyId|usize)|BTreeSet<usize>' --include='*.rs' \
    crates/svss/src crates/ba/src crates/broadcast/src crates/core/src || true)
for entry in "${allowed[@]}"; do
    hits=$(grep -vF -- "$entry" <<<"$hits" || true)
done
if [[ -n $hits ]]; then
    echo "party-tables: party-keyed hash collections (use aft_sim::PartySet / PartyMap):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "party-tables: none"
