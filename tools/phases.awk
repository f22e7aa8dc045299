# tools/phases.awk — the phase map of tools/phases.txt as two awk
# functions, shared by tools/profile.sh and tools/phases-selftest.sh.
#
#   read_phases(path)    loads the `<pattern> → <phase>` rules of path;
#   phase_of(fns, n)     the phase of a sample whose frames are
#                        fns[1..n], innermost first: that of its
#                        innermost frame any rule matches (the first
#                        matching rule of that frame, matched against
#                        rule_name(frame)), else "unmapped".
#
# A frame's phase is worked out once and kept, since a profile repeats
# the same few thousand frame names over ~10^5 samples.

function read_phases(path,    line, at, arrow) {
    arrow = " → "
    n_rules = 0
    while ((getline line < path) > 0) {
        if (line ~ /^[ \t]*(#|$)/) continue
        at = index(line, arrow)
        if (at == 0) {
            printf "%s: no \"%s\" in rule: %s\n", path, arrow, line > "/dev/stderr"
            exit 2
        }
        n_rules++
        rule_pattern[n_rules] = substr(line, 1, at - 1)
        rule_phase[n_rules] = substr(line, at + length(arrow))
    }
    close(path)
    if (n_rules == 0) {
        printf "%s: no rules\n", path > "/dev/stderr"
        exit 2
    }
}

# The name a rule sees: a frame's trailing generic arguments dropped
# (`push_outlink<u16, u64>` is `push_outlink`), since an inlined frame
# is printed as its bare name plus its arguments, and an argument names
# some other item (`run<ert_core::node::Adapt<..>>` runs the Adapt
# task, it is not it). A qualified `<T as Trait>::f` is left whole.
function rule_name(name) {
    if (name !~ /^</) sub(/<.*>$/, "", name)
    return name
}

function frame_phase(name,    bare, r) {
    if (!(name in phase_memo)) {
        phase_memo[name] = ""
        bare = rule_name(name)
        for (r = 1; r <= n_rules; r++)
            if (bare ~ rule_pattern[r]) { phase_memo[name] = rule_phase[r]; break }
    }
    return phase_memo[name]
}

function phase_of(fns, n,    k, p) {
    for (k = 1; k <= n; k++) {
        p = frame_phase(fns[k])
        if (p != "") return p
    }
    return "unmapped"
}
