#!/usr/bin/env bash
# tools/bench-pairs.sh <parent-ref> <workload> [pairs=10]
#
# The paired measurement a perf PR is judged by (choosing-metrics §8):
# checks out <parent-ref> and a snapshot of the working tree (tracked
# and untracked files, nothing ignored) into two git worktrees, builds
# the benchmark in each, runs BENCHMARK.json's command on <workload>
# alternately — parent first on odd pairs, change first on even ones,
# pair i with seed i on both sides — and hands both `--out` files to
# `ert-benchmark compare`. Exits with compare's status: 1 on any
# `worse` / `differs` row.
#
# Everything lands in .bench_build/pairs-<workload>/ (ignored); the two
# .jsonl files stay there, the worktrees are removed on exit.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "$0: pairs must be a positive integer, got '$pairs'" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/pairs-$workload"
# BENCHMARK.json's `command` and `run_seconds`.
bench=(cargo run --release --offline --quiet --manifest-path ert-benchmark/Cargo.toml --)
seconds=15

parent=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")

cleanup() {
    for side in parent change; do
        git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
    done
    git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
rm -rf "$work"
mkdir -p "$work"
# The working tree as a commit, through a throw-away index: neither the
# real index nor any ref moves.
change=$(
    export GIT_INDEX_FILE="$work/index"
    git -C "$root" read-tree HEAD
    git -C "$root" add -A
    git -C "$root" commit-tree "$(git -C "$root" write-tree)" -p HEAD -m "bench-pairs: working tree"
)
rm -f "$work/index"
git -C "$root" worktree add --quiet --detach "$work/parent" "$parent"
git -C "$root" worktree add --quiet --detach "$work/change" "$change"

for side in parent change; do
    echo "building $side ..." >&2
    (cd "$work/$side" && cargo build --release --offline --quiet --manifest-path ert-benchmark/Cargo.toml)
done

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        echo "pair $pair/$pairs: $side, seed $pair" >&2
        (cd "$work/$side" && "${bench[@]}" --workload "$workload" --seed "$pair" \
            --seconds "$seconds" --trace 0 --out "$work/$side.jsonl" >/dev/null)
    done
done

(cd "$work/change" && "${bench[@]}" compare "$work/parent.jsonl" "$work/change.jsonl")
