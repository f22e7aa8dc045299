#!/usr/bin/env bash
# tools/bench-pairs.sh <parent-ref> <workload>[,<workload>...] [pairs=10]
#
# The paired measurement a perf PR is judged by (choosing-metrics §8):
# copies <parent-ref> and the working tree (tracked and untracked files,
# nothing ignored) into two plain directories and builds the benchmark
# in each, once. Then, for each listed workload in turn, runs
# BENCHMARK.json's command alternately — parent first on odd pairs,
# change first on even ones, pair i with seed i on both sides — and
# hands that workload's two `--out` files to `ert-benchmark compare`.
# Exits 1 if any workload's compare reports a `worse` / `differs` row.
# After each compare, one traced run per side (`--trace 1 --seed 1`)
# and the per-layer lines of the two side by side, so the PR can show
# where a saving sits (choosing-metrics §6.6); `compare` never reads
# those.
#
# Everything lands in .bench_build/pairs-<workloads>/ (ignored) and
# stays there: the two trees and, per workload, parent-<workload>.jsonl,
# change-<workload>.jsonl and the two <side>-<workload>.trace.txt.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 <parent-ref> <workload>[,<workload>...] [pairs=10]" >&2
    exit 2
fi
parent_ref=$1
IFS=, read -r -a workloads <<<"$2"
pairs=${3:-10}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "$0: pairs must be a positive integer, got '$pairs'" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/pairs-$2"
# BENCHMARK.json's `command` and `run_seconds`.
bench=(cargo run --release --offline --quiet --manifest-path ert-benchmark/Cargo.toml --)
seconds=15

parent=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")

rm -rf "$work"
mkdir -p "$work/parent" "$work/change"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"
"$root/tools/snapshot-tree.sh" "$work/change"

for side in parent change; do
    echo "building $side ..." >&2
    (cd "$work/$side" && cargo build --release --offline --quiet --manifest-path ert-benchmark/Cargo.toml)
done

status=0
for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        if ((pair % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "$workload pair $pair/$pairs: $side, seed $pair" >&2
            (cd "$work/$side" && "${bench[@]}" --workload "$workload" --seed "$pair" \
                --seconds "$seconds" --trace 0 --out "$work/$side-$workload.jsonl" >/dev/null)
        done
    done
    (cd "$work/change" && "${bench[@]}" compare "$work/parent-$workload.jsonl" "$work/change-$workload.jsonl") ||
        status=1
    for side in parent change; do
        echo "$workload: traced run, $side, seed 1" >&2
        (cd "$work/$side" && "${bench[@]}" --workload "$workload" --seed 1 \
            --seconds "$seconds" --trace 1 >"$work/$side-$workload.trace.txt")
    done
    # The ledger rows are `   <layer>.<metric> <value> <unit>`; a layer
    # off this workload's path reads 0 on both sides and is left out.
    echo "== $workload · per-layer, --trace 1 --seed 1 · parent | change"
    awk '$1 !~ /^[a-z]+\.[a-z0-9_]+$/ || NF != 3 { next }
        NR == FNR { parent[$1] = $2; next }
        parent[$1] + $2 != 0 { printf "   %-34s %16s %16s %s\n", $1, parent[$1], $2, $3 }' \
        "$work/parent-$workload.trace.txt" "$work/change-$workload.trace.txt"
done
exit "$status"
