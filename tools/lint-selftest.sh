#!/usr/bin/env bash
# tools/lint-selftest.sh
#
# Proves the static gate (DESIGN.md "Determinism & Safety Rules") bites:
# copies the working tree into .bench_build/lint-selftest/ (ignored),
# appends one violation per rule to the copy, and requires that
#   1. clippy names every planted lint at the file it was planted in, and
#   2. the gate command itself, `cargo clippy --offline --workspace
#      --all-targets -- -D warnings`, exits non-zero on that tree.
# Exit 0 only if all of that holds. The working tree is never written.
#
# Step 1 runs with `--cap-lints warn`: a denied lint stops its crate from
# producing metadata, so without the cap a finding in ert-sim would hide
# the ones planted in the crates that depend on it.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/lint-selftest"
rm -rf "$work"
"$root/tools/snapshot-tree.sh" "$work"
cd "$work"

# plant <rule> <file> <lint>: appends the violation on stdin to <file>
# and records that <lint> must be reported there.
plants=()
plant() {
    cat >>"$2"
    plants+=("$1|$2|$3")
}

plant "D1 wall-clock" crates/core/src/params.rs clippy::disallowed_methods <<'EOF'
/// lint-selftest D1.
pub fn lint_selftest_d1() -> std::time::Instant {
    std::time::Instant::now()
}
EOF
plant "D3 hash-container" crates/sim/src/time.rs clippy::disallowed_types <<'EOF'
/// lint-selftest D3.
pub fn lint_selftest_d3() -> usize {
    std::collections::HashMap::<u8, u8>::new().len()
}
EOF
plant "D4 panic-path" crates/core/src/forward.rs clippy::unwrap_used <<'EOF'
/// lint-selftest D4.
pub fn lint_selftest_d4(x: Option<u8>) -> u8 {
    x.unwrap()
}
EOF
plant "D5 float-eq" crates/core/src/capacity.rs clippy::float_cmp <<'EOF'
/// lint-selftest D5.
pub fn lint_selftest_d5(a: f64, b: f64) -> bool {
    a == b
}
EOF
plant "D6 swallowed-result" crates/network/src/topology.rs clippy::let_underscore_must_use <<'EOF'
/// lint-selftest D6.
pub fn lint_selftest_d6() {
    let _ = "1".parse::<u8>();
}
EOF
plant "D7 raw-thread" crates/network/src/lookup.rs clippy::disallowed_methods <<'EOF'
/// lint-selftest D7.
pub fn lint_selftest_d7() -> bool {
    std::thread::spawn(|| ()).is_finished()
}
EOF
plant "D10 shared-state" crates/sim/src/event.rs clippy::disallowed_types <<'EOF'
/// lint-selftest D10.
pub struct LintSelftestD10 {
    /// An interior-mutable field.
    pub cell: std::cell::RefCell<u8>,
}
EOF
plant "D11 stale expect" crates/overlay/src/ring.rs unfulfilled_lint_expectations <<'EOF'
/// lint-selftest D11: waives a finding that is not there.
#[expect(clippy::unwrap_used, reason = "stale")]
pub fn lint_selftest_stale_expect() {}
EOF
plant "D11 allow without reason" crates/overlay/src/coords.rs clippy::allow_attributes_without_reason <<'EOF'
#[allow(dead_code)]
fn lint_selftest_bare_allow() {}
EOF

echo "lint-selftest: clippy over the planted tree ..." >&2
cargo clippy --offline --quiet --workspace --all-targets --message-format json \
    -- --cap-lints warn >messages.json 2>clippy.stderr || {
    cat clippy.stderr >&2
    echo "lint-selftest: the planted tree does not compile" >&2
    exit 1
}

missed=0
for planted in "${plants[@]}"; do
    IFS='|' read -r rule file lint <<<"$planted"
    if grep -F "\"code\":{\"code\":\"$lint\"" messages.json |
        grep -F "\"file_name\":\"$file\"" >/dev/null; then
        echo "ok     $rule: $lint at $file"
    else
        echo "MISSED $rule: $lint did not fire at $file"
        missed=1
    fi
done

if cargo clippy --offline --quiet --workspace --all-targets -- -D warnings >/dev/null 2>&1; then
    echo "MISSED the gate command exits 0 on the planted tree"
    missed=1
else
    echo "ok     the gate command fails on the planted tree"
fi
exit "$missed"
