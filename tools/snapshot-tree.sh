#!/usr/bin/env bash
# tools/snapshot-tree.sh <dest-dir>
#
# Copies the working tree — tracked files as they are on disk plus
# untracked ones, nothing ignored — into <dest-dir>, which must be empty
# or absent. A plain copy: no index, ref or worktree of the repository
# is created or moved. Used by bench-pairs.sh (the "change" side of a
# pair) and lint-selftest.sh (the tree the violations are planted in).
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <dest-dir>" >&2
    exit 2
fi
mkdir -p "$1"
dest=$(cd "$1" && pwd)
cd "$(git rev-parse --show-toplevel)"
# A path deleted on disk is still in the index, and tar stops on a
# missing file: pass on only what exists.
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' path; do
        if [[ -e $path || -L $path ]]; then printf '%s\0' "$path"; fi
    done |
    tar --null -T - -cf - | tar -x -C "$dest"
