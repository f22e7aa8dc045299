//! CLI for `ert-lint`.
//!
//! ```text
//! cargo run --release -p ert-lint                  # lint the enclosing workspace
//! cargo run --release -p ert-lint -- --root PATH   # lint a different workspace checkout
//! ```
//!
//! One `file:line: [rule] message` line per violation and a summary
//! line go to stdout. Exit codes: `0` clean, `1` violations, `2`
//! usage or IO error (reason on stderr).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use ert_lint::{find_workspace_root, lint_workspace};

const USAGE: &str = "usage: ert-lint [--root PATH]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ert-lint: --root requires a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ert-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("ert-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = lint_workspace(&root);
    print!("{}", report.human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
