//! The one experiment binary: `figures [<name>...] [flags]` runs the
//! named rows of the experiment table (`ert_experiments::catalog`) —
//! every paper figure and theorem table when no name is given — and
//! writes their CSVs to `results/`. The flags are documented in
//! `ert_experiments::cli`; a bad command line prints the usage (with
//! every row name) and exits 2 before any sweep starts.
//!
//! At paper scale (n = 2048, 3000 lookups, Table 2 defaults) the
//! all-in-one run takes a few minutes in release mode; `--quick` runs a
//! reduced version in seconds.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ert_experiments::catalog::Ctx;
use ert_experiments::cli::{usage, Args};
use ert_experiments::report::emit;
use ert_network::ProtocolSpec;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("figures: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let telemetry = match args.telemetry.build() {
        Ok(telemetry) => telemetry,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::from(2);
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "D1: progress reporting for the operator, not sim state"
    )]
    let started = Instant::now();

    let ctx = Ctx::new(&args);
    for row in &args.rows {
        eprintln!("[figures] {}...", row.name);
        let tables = (row.run)(&ctx, &ctx.scenario(row));
        if let Err(e) = emit(&tables, Some(Path::new("results"))) {
            eprintln!("figures: {}: {e}", row.name);
            return ExitCode::FAILURE;
        }
        if ctx.bound_violated.get() {
            eprintln!("figures: a theorem bound was violated");
            return ExitCode::FAILURE;
        }
    }

    if let Some(telemetry) = telemetry {
        let (scenario, tweak) = ctx.capture(&args.rows);
        args.telemetry
            .capture(telemetry, &scenario, &ProtocolSpec::ert_af(), tweak);
    }

    eprintln!("[figures] done in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
