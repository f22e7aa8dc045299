//! `ert-lint`: workspace determinism & panic-safety analysis.
//!
//! The paper's provable bounds (Theorems 3.1–3.3, 4.1) are only
//! reproducible if every simulation run is a pure function of its seed
//! and never tears down mid-run. This crate enforces that property
//! mechanically — no dependencies — with a hand-rolled Rust lexer, a
//! lightweight item parser, a workspace symbol table, and a
//! conservative call graph feeding an eleven-rule catalog:
//!
//! | rule | name | what it bans | where |
//! |------|------|--------------|-------|
//! | D1 | `wall-clock` | `Instant::now`, `SystemTime` | everywhere except binary/example targets |
//! | D2 | `ambient-rng` | `thread_rng`, `from_entropy`, `OsRng` | everywhere |
//! | D3 | `hash-container` | `HashMap`/`HashSet` | `ert-sim`, `ert-network`, `ert-core`, `ert-overlay` |
//! | D4 | `panic-path` | `.unwrap()`, `.expect()`, `panic!` family | `core::forward`, `core::adapt`, `sim::engine`, `network::lookup` (tests exempt) |
//! | D5 | `float-eq` | `==`/`!=` against float literals or load/capacity pairs | everywhere |
//! | D6 | `swallowed-result` | `let _ =` and trailing `.ok();` discards | `network::network`, `network::topology`, all of `ert-faults` (tests exempt) |
//! | D7 | `raw-thread` | `thread::spawn` / `thread::scope` | everywhere except `ert-par` and binaries (no test exemption) |
//! | D8 | `unbounded-collector` | `Samples` / `Vec<f64>` accumulation | `sim::engine`, `network::network` hot loops (tests exempt) |
//! | D9 | `transitive-panic` | panics *reachable through the call graph* from the D4 hot-path roots | whole workspace (tests exempt) |
//! | D10 | `shared-state` | `static mut`, locks, atomics, interior mutability | `ert-sim`, `ert-network`, `ert-core` (tests exempt) |
//! | D11 | `stale-allow` | an `allow` comment that waives nothing | everywhere (not itself waivable) |
//!
//! A violation can be waived inline with
//! `// ert-lint: allow(<rule>) — <justification>` on the same or the
//! preceding line; the justification is mandatory and malformed
//! suppressions are themselves violations. D11 keeps that ledger
//! honest: a waiver that stops matching a finding becomes a finding.
//!
//! Run it as `cargo run --release -p ert-lint` (`--root PATH` lints
//! another checkout): one `file:line: [rule] message` line per
//! violation on stdout, exit `0` clean, `1` violations, `2` usage or IO
//! error. The runtime counterpart — the `sanitize` feature of
//! `ert-network` — asserts the theorem bounds dynamically while this
//! crate keeps nondeterminism out statically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod workspace;

use std::fs;
use std::path::Path;

pub use report::Report;
pub use rules::{check_file, FileContext, Suppressed, Violation};
pub use workspace::{find_workspace_root, workspace_files};

use parse::{parse_items, ParsedFile};
use rules::{analyze_file, resolve_file, FileAnalysis};
use symbols::SymbolTable;

/// Lints every workspace source file under `root` — the file-local
/// rules plus the cross-file call-graph pass — and returns the
/// aggregated, sorted report. Unreadable files are skipped (the walk
/// already filtered to regular `.rs` files).
pub fn lint_workspace(root: &Path) -> Report {
    // Pass 1: lex + file-local rules, holding resolution open.
    let mut analyses: Vec<FileAnalysis> = Vec::new();
    for file in workspace_files(root) {
        let Ok(src) = fs::read_to_string(&file.path) else {
            continue;
        };
        analyses.push(analyze_file(&src, &file.ctx));
    }

    // Pass 2: parse items, build the symbol table and call graph, and
    // compute the D9 transitive-panic findings.
    let parsed: Vec<ParsedFile> = analyses
        .iter()
        .map(|a| parse_items(&a.lexed, &a.ctx))
        .collect();
    let table = {
        let refs: Vec<(&ParsedFile, &FileContext)> = parsed
            .iter()
            .zip(analyses.iter())
            .map(|(p, a)| (p, &a.ctx))
            .collect();
        SymbolTable::build(&refs)
    };
    let graph = {
        let lexeds: Vec<&lexer::Lexed> = analyses.iter().map(|a| &a.lexed).collect();
        callgraph::build_graph(&table, &lexeds)
    };
    let d9 = callgraph::transitive_panic_violations(&table, &graph);

    // Pass 3: resolve waivers per file with the cross-file findings in
    // hand, so D9 can be suppressed in place and D11 sees true usage.
    let mut report = Report::default();
    for analysis in analyses {
        report.files_scanned += 1;
        let extra: Vec<Violation> = d9
            .iter()
            .filter(|v| v.file == analysis.ctx.rel_path)
            .cloned()
            .collect();
        let mut outcome = resolve_file(analysis, &extra, true);
        report.violations.append(&mut outcome.violations);
        report.suppressed.append(&mut outcome.suppressed);
    }
    report.sort();
    report
}
