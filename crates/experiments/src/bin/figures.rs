//! The one experiment binary: `figures [<name>...] [flags]` runs the
//! named rows of the experiment table (`ert_experiments::catalog`) —
//! every row when no name is given — and writes their CSVs to
//! `results/`. The flags are documented in `ert_experiments::cli`; a
//! bad command line prints the usage (with every row name) and exits 2
//! before any sweep starts.
//!
//! With no name and no flag it rewrites all 47 committed CSVs byte for
//! byte: about 130 s in release mode with `--jobs 2` on a 2-vCPU VM.
//! `--quick` runs a reduced version in seconds.

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
