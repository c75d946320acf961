#!/usr/bin/env bash
# vendor: a stand-in under vendor/ is this repository's code, kept only
# while something builds against it. Fails when
#   - a directory under vendor/ is named by no Cargo.toml outside vendor/
#     (nothing builds it), or
#   - a path entry of the root manifest's [workspace.dependencies] is
#     inherited (`<name>.workspace = true`) by no manifest (nothing uses it),
# so that deleting a crate's last user also deletes the crate.
#
# usage: scripts/check_vendor.sh   (from the repository root)
set -euo pipefail

mapfile -t manifests < <(git ls-files -- '*Cargo.toml')
mapfile -t outside < <(printf '%s\n' "${manifests[@]}" | grep -v '^vendor/')
fail=0

for dir in vendor/*/; do
    dir=${dir%/}
    if ! grep -qF -- "$dir\"" "${outside[@]}"; then
        echo "vendor: $dir is named by no Cargo.toml outside vendor/" >&2
        fail=1
    fi
done

entries=$(awk '/^\[/ { inside = ($0 == "[workspace.dependencies]") }
               inside && /^[A-Za-z0-9_-]+ *=.*path *=/ { print $1 }' Cargo.toml)
for name in $entries; do
    if ! grep -qE "^$name(\.workspace *= *true| *=.*workspace *= *true)" "${manifests[@]}"; then
        echo "vendor: [workspace.dependencies] $name has no dependent" >&2
        fail=1
    fi
done

if [[ $fail -ne 0 ]]; then
    exit 1
fi
echo "vendor: $(ls -d vendor/*/ | wc -l) stand-ins, each built and used"
