#!/usr/bin/env bash
# tools/profile.sh <workload> [frame-filter]
#
# A sampling profile of one benchmark workload, attributed to source
# functions. Copies the working tree (tools/snapshot-tree.sh) and builds
# ert-benchmark there with frame pointers and line tables, so nothing in
# the working tree is written (a build may rewrite ert-benchmark's
# Cargo.lock), then runs `--workload <workload> --seed 1 --trace 0` with a
# small sampler preloaded. The sampler arms a CLOCK_MONOTONIC timer that
# sends SIGPROF to the main thread every 50 µs; each signal records the
# interrupted instruction pointer and the frame-pointer chain, bounded to
# the main thread's stack. At exit it writes the samples and a copy of
# /proc/self/maps. Only the benchmark process itself is sampled: no
# tracer attaches to it and nothing machine-wide is touched.
#
# Addresses are symbolized with `addr2line -f -i -C` (inlined frames
# expanded) and the script prints four lists: per function, its self
# share (the innermost frame of a sample) and its inclusive share
# (anywhere on the stack, once per sample), then per source line its
# self share (the innermost `file:line` of a sample, paths relative to
# the copied tree or to the toolchain's source), then per run phase its
# share. The line list is where a hot instruction shows, such
# as a store-forwarding stall on a value written field by field and read
# back whole. A sample's phase is that of its innermost frame a rule of
# tools/phases.txt matches (tools/phases.awk), or "unmapped"; the phase
# list sums to 1, so two profiles' phase lists diff as a before/after
# table. With a frame filter, only the samples whose
# stack has a function whose name contains it are kept, and the shares
# are of those: `tools/profile.sh wire-chord1k WireCluster::run_schedule`.
# The inclusive list leaves out the frames on (nearly) every kept sample,
# share ≥ 0.9999 — `main`, the runtime's start-up, the benchmark's timing
# wrappers, the filtered frame and its callers — which say nothing and
# would fill the list; the header line counts them.
#
# Everything lands in .bench_build/profile/ (ignored) and stays there:
# the tree, the build, the sampler, samples.bin, maps.txt, the symbol
# table and the report program.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 <workload> [frame-filter]" >&2
    exit 2
fi
workload=$1
filter=${2:-}
# Long enough for ~10^5 samples, short enough to symbolize in seconds.
seconds=5
top=40

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/profile"
mkdir -p "$work"

rm -rf "$work/tree"
"$root/tools/snapshot-tree.sh" "$work/tree"
echo "building ert-benchmark with frame pointers ..." >&2
(cd "$work/tree" && RUSTFLAGS="-C force-frame-pointers=yes" \
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet --manifest-path ert-benchmark/Cargo.toml)
exe="$work/target/release/ert-benchmark"

cat >"$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { DEPTH = 128, WORDS = 1 << 16 };
static uint64_t buf[WORDS]; /* per sample: depth, then that many addresses */
static size_t used;
static int out = -1;
static uintptr_t stack_top; /* end of the main thread's [stack] mapping */
static timer_t timer;

static void flush(void) {
    const char *p = (const char *)buf;
    size_t left = used * sizeof buf[0];
    while (left > 0) {
        ssize_t w = write(out, p, left);
        if (w <= 0) break;
        p += w, left -= (size_t)w;
    }
    used = 0;
}

static void on_sample(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t frames[DEPTH];
    size_t n = 0;
    frames[n++] = (uint64_t)r[REG_RIP];
    /* A frame lies between the interrupted stack pointer and the top. */
    uintptr_t fp = (uintptr_t)r[REG_RBP], sp = (uintptr_t)r[REG_RSP];
    while (n < DEPTH && fp >= sp && fp % 8 == 0 && fp + 16 <= stack_top) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0) break;
        frames[n++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    if (used + n + 1 > WORDS) flush();
    buf[used++] = n;
    memcpy(buf + used, frames, n * sizeof frames[0]);
    used += n;
}

__attribute__((constructor)) static void start(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    unsigned long lo, hi;
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2) stack_top = hi;
    if (maps) fclose(maps);
    out = open("samples.bin", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || stack_top == 0) return;
    struct sigaction sa = {.sa_sigaction = on_sample, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_THREAD_ID, .sigev_signo = SIGPROF};
    ev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
    struct itimerspec every = {{0, 50000}, {0, 50000}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (out < 0) return;
    timer_delete(timer);
    flush();
    close(out);
    FILE *maps = fopen("/proc/self/maps", "r"), *copy = fopen("maps.txt", "w");
    char line[4096];
    while (maps && copy && fgets(line, sizeof line, maps)) fputs(line, copy);
    if (maps) fclose(maps);
    if (copy) fclose(copy);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c" -lrt

echo "sampling $workload for ${seconds}s ..." >&2
(cd "$work" && LD_PRELOAD="$work/sampler.so" "$exe" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 >/dev/null)

# The executable's mappings, in decimal: the load base (the mapping at
# file offset 0) and every range that holds its code.
exe_real=$(readlink -f "$exe")
ranges=""
base=""
while read -r span _ offset _ _ path; do
    [[ $path == "$exe_real" ]] || continue
    lo=$((16#${span%-*})) hi=$((16#${span#*-}))
    ranges+="$lo $hi "
    if ((16#$offset == 0)) && [[ -z $base ]]; then base=$lo; fi
done <"$work/maps.txt"
if [[ -z $base ]]; then
    echo "$0: no mapping of $exe_real in maps.txt" >&2
    exit 1
fi

# One line per sample: the executable-relative address of each frame
# (a return address less one, so that it names the call's line), or "-"
# for a frame outside the executable.
od -An -v -tu8 -w8 "$work/samples.bin" |
    awk -v base="$base" -v ranges="$ranges" '
        BEGIN { n = split(ranges, r, " ") }
        left == 0 { if (NR > 1) print line; left = $1; line = ""; i = 0; next }
        {
            a = $1; tok = "-"
            for (k = 1; k < n; k += 2) if (a >= r[k] && a < r[k + 1]) {
                tok = sprintf("0x%x", a - base - (i > 0)); break
            }
            line = line (i++ ? " " : "") tok; left--
        }
        END { if (NR > 0) print line }' >"$work/stacks.txt"

# addr2line -a prints each address, then a (function, file:line) pair per
# inlined frame, innermost first; fold that into
# "address<TAB>innermost file:line<TAB>f1<TAB>f2...".
tr ' ' '\n' <"$work/stacks.txt" | grep -v '^-$' | sort -u |
    addr2line -a -f -i -C -e "$exe" |
    awk -v tree="$work/tree/" '
        function flush() { if (cur) print cur "\t" where fns }
        /^0x/ { flush(); cur = $0; sub(/^0x0*/, "0x", cur); odd = 0; where = ""; fns = ""; next }
        !odd { fns = fns "\t" $0 }
        odd && where == "" {
            where = $1
            if (index(where, tree) == 1) where = substr(where, length(tree) + 1)
            sub(/^\/rustc\/[0-9a-f]+\//, "", where)
        }
        { odd = !odd }
        END { flush() }' >"$work/symbols.txt"

cat >"$work/report.awk" <<'EOF'
    NR == FNR { line[$1] = $2; syms[$1] = substr($0, length($1) + length($2) + 3); next }
    {
        split($0, frames, " "); nf = 0
        here = frames[1] == "-" ? "[outside the executable]" : line[frames[1]]
        for (k = 1; k in frames; k++) {
            if (frames[k] == "-") { fn[++nf] = "[outside the executable]"; continue }
            m = split(syms[frames[k]], chain, "\t")
            for (c = 1; c <= m; c++) fn[++nf] = chain[c]
        }
        if (filter != "") {
            keep = 0
            for (k = 1; k <= nf; k++) if (index(fn[k], filter)) { keep = 1; break }
            if (!keep) next
        }
        kept++; self[fn[1]]++; lines[here]++; phases[phase_of(fn, nf)]++
        split("", seen)
        for (k = 1; k <= nf; k++) if (!(fn[k] in seen)) { seen[fn[k]] = 1; incl[fn[k]]++ }
    }
    BEGIN { read_phases(rules) }
    END {
        printf "%d samples of %d kept%s\n", kept, FNR, (filter == "" ? "" : " (under \"" filter "\")")
        fflush()
        if (kept == 0) exit
        for (f in self) printf "self\t%.4f\t%s\n", self[f] / kept, f | "sort -t \"\t\" -k2,2nr | head -n " top
        close("sort -t \"\t\" -k2,2nr | head -n " top)
        for (f in incl) if (incl[f] / kept >= 0.9999) everywhere++
        printf "%d frames on every kept sample left out of the inclusive list\n", everywhere
        fflush()
        for (f in incl) if (incl[f] / kept < 0.9999)
            printf "incl\t%.4f\t%s\n", incl[f] / kept, f | "sort -t \"\t\" -k2,2nr | head -n " top
        close("sort -t \"\t\" -k2,2nr | head -n " top)
        for (l in lines) printf "line\t%.4f\t%s\n", lines[l] / kept, l | "sort -t \"\t\" -k2,2nr | head -n " top
        close("sort -t \"\t\" -k2,2nr | head -n " top)
        for (p in phases) printf "phase\t%.4f\t%s\n", phases[p] / kept, p | "sort -t \"\t\" -k2,2nr"
    }
EOF
awk -F '\t' -v filter="$filter" -v top="$top" -v rules="$root/tools/phases.txt" \
    -f "$root/tools/phases.awk" -f "$work/report.awk" "$work/symbols.txt" "$work/stacks.txt"
