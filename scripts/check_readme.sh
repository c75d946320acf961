#!/usr/bin/env bash
# readme: README.md is a map of the repository, and a map must fit and
# must not point at what is gone. Fails when
#   - README.md is over 20 000 bytes (each design is told in the module
#     doc that owns it; the README points there),
#   - a backticked path under crates/, tests/, scripts/, examples/,
#     benchmark/, vendor/, src/ or .github/ does not exist (a `::item`
#     suffix names something inside the file and is not checked), or
#   - a binary it names, `exp_*` or `aft-partyd`, has no source in
#     crates/bench/src/bin/.
#
# usage: scripts/check_readme.sh   (from anywhere in the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

readme=README.md
limit=20000
fail=0

bytes=$(wc -c <"$readme")
if ((bytes > limit)); then
    echo "readme: $readme is $bytes bytes, over the $limit-byte cap" >&2
    fail=1
fi

while read -r span; do
    path=${span%% *}
    path=${path%%::*}
    if [[ ! -e $path ]]; then
        echo "readme: \`$span\` names a path that does not exist" >&2
        fail=1
    fi
done < <(grep -oE '`[^`]+`' "$readme" | tr -d '`' |
    grep -E '^(crates|tests|scripts|examples|benchmark|vendor|src|\.github)/' | sort -u)

while read -r name; do
    if [[ ! -f crates/bench/src/bin/${name//-/_}.rs ]]; then
        echo "readme: binary $name has no source in crates/bench/src/bin/" >&2
        fail=1
    fi
done < <(grep -oE '\b(exp_[a-z0-9_]+|aft-partyd)(\.[a-z]+)?' "$readme" |
    grep -vE '\.[a-z]+$' | sort -u)

exit "$fail"
