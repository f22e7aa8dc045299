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
# After each compare, three traced runs per side (`--trace 1 --seed 1`),
# alternating like the pairs, and the per-layer lines of the two side
# by side as each side's median and min–max over its three runs, so
# the PR can show where a saving sits (choosing-metrics §6.6) and a
# row whose ranges overlap reads as noise, not as a change; `compare`
# never reads those.
#
# Everything lands in .bench_build/pairs-<workloads>/ (ignored) and
# stays there: the two trees and, per workload, parent-<workload>.jsonl,
# change-<workload>.jsonl and the six <side>-<workload>.trace<run>.txt.
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
    traced=3
    for ((run = 1; run <= traced; run++)); do
        if ((run % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "$workload: traced run $run/$traced, $side, seed 1" >&2
            (cd "$work/$side" && "${bench[@]}" --workload "$workload" --seed 1 \
                --seconds "$seconds" --trace 1 >"$work/$side-$workload.trace$run.txt")
        done
    done
    # The ledger rows are `   <layer>.<metric> <value> <unit>`; a layer
    # off this workload's path reads 0 in every run and is left out.
    echo "== $workload · per-layer, --trace 1 --seed 1 · median [min–max] of $traced runs · parent | change"
    awk '$1 !~ /^[a-z]+\.[a-z0-9_]+$/ || NF != 3 { next }
        {
            side = (FILENAME ~ /\/parent-[^\/]*$/) ? "parent" : "change"
            if (!($1 in unit)) { order[++rows] = $1; unit[$1] = $3 }
            v[side, $1, ++n[side, $1]] = $2
            if ($2 + 0 != 0) live[$1] = 1
        }
        # The median and the range of the values of one side, as printed
        # by the ledger (sorted by value, not as text).
        function summary(side, key,    k, j, m, t, s) {
            m = n[side, key]
            for (k = 1; k <= m; k++) s[k] = v[side, key, k]
            for (k = 2; k <= m; k++)
                for (j = k; j > 1 && s[j - 1] + 0 > s[j] + 0; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
            return s[int((m + 1) / 2)] " [" s[1] "–" s[m] "]"
        }
        END {
            for (r = 1; r <= rows; r++) if (order[r] in live)
                printf "   %-34s %32s %32s %s\n", order[r], summary("parent", order[r]),
                    summary("change", order[r]), unit[order[r]]
        }' "$work"/parent-"$workload".trace*.txt "$work"/change-"$workload".trace*.txt
done
exit "$status"
