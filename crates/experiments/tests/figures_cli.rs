//! The `figures` binary from outside: spawned in an empty temp cwd,
//! checked by exit code and by what it leaves on disk.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `figures <args>` in a fresh directory and returns it with the
/// process output.
fn figures(case: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = std::env::temp_dir().join(format!("ert_figures_cli_{}_{case}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (dir, out)
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn one_row_writes_exactly_its_tables() {
    let (dir, out) = figures("fig6", &["fig6", "--quick"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(entries(&dir), ["results"]);
    assert_eq!(
        entries(&dir.join("results")),
        ["fig_6.csv", "fig_6_(detail).csv"]
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_command_lines_exit_2_before_anything_is_written() {
    let cases: [(&str, &[&str], &str); 4] = [
        ("name", &["fig11", "--quick"], "unknown experiment `fig11`"),
        (
            "seeds",
            &["fig6", "--quick", "--seeds", "abc"],
            "`--seeds abc`",
        ),
        ("flag", &["fig6", "--quik"], "unknown flag `--quik`"),
        (
            "sink",
            &["fig6", "--quick", "--telemetry", "no-such-dir/run.jsonl"],
            "cannot create no-such-dir/run.jsonl",
        ),
    ];
    for (case, args, message) in cases {
        let (dir, out) = figures(case, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.contains(message), "{case}: {stderr}");
        assert!(out.stdout.is_empty(), "{case} printed tables");
        assert_eq!(entries(&dir), [""; 0], "{case} wrote files");
        fs::remove_dir_all(&dir).ok();
    }
}
