//! Integration: the workspace-aware analysis pass (D9/D10/D11), proven
//! against planted throwaway workspaces through the CLI's human
//! `file:line: [rule] message` lines — the same fixture style as
//! `workspace_gate.rs`.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A throwaway workspace under the system temp dir; removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("ert-lint-analysis-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        fs::create_dir_all(&root).expect("mkdir fixture");
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .expect("write root manifest");
        Fixture { root }
    }

    /// Adds a crate `dir` (under `crates/`) named `package` with the
    /// given `(rel_src_path, contents)` source files.
    fn krate(&self, dir: &str, package: &str, files: &[(&str, &str)]) -> &Fixture {
        let base = self.root.join("crates").join(dir);
        fs::write(
            {
                fs::create_dir_all(base.join("src")).expect("mkdir crate");
                base.join("Cargo.toml")
            },
            format!("[package]\nname = \"{package}\"\nversion = \"0.0.0\"\n"),
        )
        .expect("write crate manifest");
        for (rel, contents) in files {
            let path = base.join(rel);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent).expect("mkdir src subdir");
            }
            fs::write(path, contents).expect("write source");
        }
        self
    }

    /// Runs the CLI over the fixture: `(exit code, stdout)`.
    fn lint(&self) -> (i32, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_ert-lint"))
            .arg("--root")
            .arg(&self.root)
            .output()
            .expect("run ert-lint");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

// ---- D9: transitive-panic through the call graph ----

#[test]
fn d9_panic_two_calls_below_a_hot_path_root_fails_the_gate() {
    let fx = Fixture::new("d9");
    // The panic is two hops below `network::lookup` and in a different
    // file, so the old per-file D4 pass could never see it.
    fx.krate(
        "network",
        "ert-network",
        &[
            (
                "src/lookup.rs",
                "pub fn lookup_step(x: Option<u32>) -> u32 { crate::helper::stage_one(x) }\n",
            ),
            (
                "src/helper.rs",
                "pub fn stage_one(x: Option<u32>) -> u32 { stage_two(x) }\n\
                 pub fn stage_two(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
        ],
    );
    let (code, stdout) = fx.lint();
    assert_eq!(code, 1, "reachable panic must fail the gate: {stdout}");
    // Reported at the panic site, and the diagnostic names the chain
    // from the root to it.
    let line = stdout
        .lines()
        .find(|l| l.starts_with("crates/network/src/helper.rs:2: [transitive-panic] "))
        .unwrap_or_else(|| panic!("no D9 line at the panic site: {stdout}"));
    assert!(
        line.contains("lookup_step → network::helper::stage_one → network::helper::stage_two"),
        "line: {line}"
    );
}

#[test]
fn d9_is_waivable_at_the_panic_site() {
    let fx = Fixture::new("d9-waived");
    fx.krate(
        "network",
        "ert-network",
        &[
            (
                "src/lookup.rs",
                "pub fn lookup_step(v: &[u32]) -> u32 { crate::helper::first(v) }\n",
            ),
            (
                "src/helper.rs",
                "pub fn first(v: &[u32]) -> u32 {\n\
                 // ert-lint: allow(transitive-panic) — lookup_step's callers never pass an empty slice\n\
                 *v.first().unwrap()\n\
                 }\n",
            ),
        ],
    );
    let (code, stdout) = fx.lint();
    assert_eq!(code, 0, "justified waiver must pass: {stdout}");
    assert!(
        stdout.ends_with("0 violation(s), 1 suppressed\n"),
        "the waiver must be counted as suppressed: {stdout}"
    );
    let report = ert_lint::lint_workspace(&fx.root);
    let waived = &report.suppressed[0];
    assert_eq!(waived.violation.rule, "transitive-panic");
    assert_eq!(waived.violation.file, "crates/network/src/helper.rs");
    assert!(waived.justification.contains("never pass an empty slice"));
}

// ---- D10: shared-state in the shard-bound crates ----

#[test]
fn d10_mutex_in_a_sim_module_fails_the_gate() {
    let fx = Fixture::new("d10");
    fx.krate(
        "sim",
        "ert-sim",
        &[(
            "src/lib.rs",
            "use std::sync::Mutex;\npub static SHARED: Mutex<u64> = Mutex::new(0);\n",
        )],
    );
    let (code, stdout) = fx.lint();
    assert_eq!(code, 1, "shared state in ert-sim must fail: {stdout}");
    assert!(
        stdout.contains("crates/sim/src/lib.rs:2: [shared-state] `Mutex` is shared"),
        "report: {stdout}"
    );
}

/// The sharded-core regression shape: someone "fixes" cross-shard
/// communication by wrapping the mailboxes in a `Mutex` instead of
/// keeping the shard reactors shared-nothing. D10 must catch exactly
/// this plant in any shard-bound crate, while the same types stay
/// exempt inside `#[cfg(test)]` modules.
#[test]
fn d10_catches_a_planted_cross_shard_mutex() {
    let fx = Fixture::new("d10-cross-shard");
    fx.krate(
        "network",
        "ert-network",
        &[(
            "src/shard_bridge.rs",
            "pub struct ShardBridge {\n\
                 // cross-shard mailbox \"protected\" by a lock: the exact\n\
                 // shared-state regression the shared-nothing core forbids\n\
                 cross_shard: std::sync::Mutex<Vec<(usize, u64)>>,\n\
             }\n\
             impl ShardBridge {\n\
                 pub fn send(&self, to: usize, ev: u64) {\n\
                     self.cross_shard.lock().unwrap().push((to, ev));\n\
                 }\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::cell::RefCell;\n\
                 #[test]\n\
                 fn scratch() { let c = RefCell::new(1u32); assert_eq!(*c.borrow(), 1); }\n\
             }\n",
        )],
    );
    let (code, stdout) = fx.lint();
    assert_eq!(code, 1, "a cross-shard Mutex must fail the gate: {stdout}");
    // The diagnostic sits on the field and names the planted type.
    assert!(
        stdout.contains("crates/network/src/shard_bridge.rs:4: [shared-state] `Mutex` is shared"),
        "report: {stdout}"
    );
    // Exactly one finding: the test-module RefCell stays exempt.
    assert_eq!(
        stdout.matches(": [shared-state] ").count(),
        1,
        "the #[cfg(test)] RefCell must not be flagged: {stdout}"
    );
}

// ---- D11: stale allows ----

#[test]
fn d11_allow_masking_nothing_fails_the_gate() {
    let fx = Fixture::new("d11");
    fx.krate(
        "clean",
        "ert-clean",
        &[(
            "src/lib.rs",
            "// ert-lint: allow(wall-clock) — leftover from a removed Instant::now\n\
             pub fn f() -> u32 { 1 }\n",
        )],
    );
    let (code, stdout) = fx.lint();
    assert_eq!(code, 1, "stale allow must fail the gate: {stdout}");
    assert!(
        stdout.contains(
            "crates/clean/src/lib.rs:1: [stale-allow] `allow(wall-clock)` waives nothing"
        ),
        "report: {stdout}"
    );
}
