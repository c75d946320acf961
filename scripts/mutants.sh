#!/usr/bin/env bash
# mutants: runs the protocol crates' tests against deliberately broken
# copies of the code. Each patch (a `git diff` against the tree, kept
# under scripts/mutants/) is applied in a throwaway `git worktree` of the
# current tree — HEAD plus any staged or unstaged change to a tracked
# file — and `cargo test -q --release -p aft-ba -p aft-core` runs there.
# A mutant the tests fail on is `killed`; one they pass is `survived`,
# which names a missing test.
#
# Prints one `<patch>: killed|survived` line per patch and exits 1 if any
# survived, 2 if a patch does not apply or does not build (such a mutant
# shows nothing). The worktrees go under $TMPDIR and are removed at
# exit; set CARGO_TARGET_DIR to share one build directory between runs.
#
# usage: scripts/mutants.sh <patch>…
set -euo pipefail
if [ $# -eq 0 ]; then
    echo "usage: $0 <patch>…" >&2
    exit 2
fi
repo=$(git rev-parse --show-toplevel)
# A commit of the working tree's tracked files; HEAD when it is clean.
base=$(git -C "$repo" -c user.name=mutants -c user.email=mutants@localhost stash create)
base=${base:-HEAD}
tmp=$(mktemp -d)
cleanup() {
    for wt in "$tmp"/*/; do
        [ -d "$wt" ] && git -C "$repo" worktree remove --force "$wt"
    done
    rm -rf "$tmp"
    git -C "$repo" worktree prune
}
trap cleanup EXIT

status=0
for patch in "$@"; do
    name=$(basename "$patch" .patch)
    wt="$tmp/$name"
    git -C "$repo" worktree add -q --detach "$wt" "$base"
    if ! git -C "$wt" apply "$(realpath "$patch")"; then
        echo "$name: does not apply"
        exit 2
    fi
    if ! (cd "$wt" && cargo test -q --release -p aft-ba -p aft-core --no-run 2>/dev/null); then
        echo "$name: does not build"
        exit 2
    fi
    if (cd "$wt" && cargo test -q --release -p aft-ba -p aft-core >/dev/null 2>&1); then
        echo "$name: survived"
        status=1
    else
        echo "$name: killed"
    fi
    git -C "$repo" worktree remove --force "$wt"
done
exit $status
