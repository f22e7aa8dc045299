//! The `ert-benchmark` command. See the crate docs and `README.md`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use ert_benchmark::compare::{compare, load, render};
use ert_benchmark::harness::{end_to_end, run_sweep, trace_pass, Sweep, TraceDoc};
use ert_benchmark::metrics::END_TO_END;
use ert_benchmark::report::RunResult;
use ert_benchmark::stats::quartiles;
use ert_benchmark::workload::{find, Workload, WORKLOADS};

const USAGE: &str = "usage:
  ert-benchmark --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
                [--quick] [--out <file>] [--trace-dir <dir>]
  ert-benchmark compare <a> <b>

  --workload   one of the names below, or `all`
  --seed       every input is generated from it
  --seconds    host seconds to measure for (default 15); the sweep always
               completes once, then repeats until the time is up
  --trace 0    untraced pass: the end-to-end metrics (default)
  --trace 1    traced pass: the per-layer metrics, and trace-<workload>.json
  --quick      the reduced shapes the tests run (n <= 192, <= 400 lookups)
  --out        append one JSON record per workload, for `compare`
  --trace-dir  where trace-<workload>.json goes (default: beside the binary)

  compare      judge the records in <b> (the change) against <a> (the parent);
               exits 1 on any `worse` or `differs` row";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    trace_dir: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut traced = false;
    let mut quick = false;
    let mut out = None;
    let mut trace_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: `{v}` is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a duration"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value()?),
            "--trace-dir" => trace_dir = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workloads = if name == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?]
    };
    Ok(Args {
        workloads: if quick {
            workloads.into_iter().map(Workload::quick).collect()
        } else {
            workloads
        },
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        out,
        trace_dir,
    })
}

fn print_header(workload: Workload, seed: u64, pass: &str) {
    println!(
        "== {} · seed {seed} · {pass} · n={} · {} lookups x {} worlds",
        workload.name, workload.n, workload.lookups, workload.worlds
    );
    println!("   {}", workload.why);
}

fn print_verdict(result: &RunResult) {
    println!("   report_fingerprint       {}", result.fingerprint);
    println!(
        "   correct {} · attempted {} · failed {}",
        result.correct, result.attempted, result.failed
    );
    for error in &result.errors {
        println!("   FAILED CHECK: {error}");
    }
}

fn print_end_to_end(workload: Workload, result: &RunResult, sweep: &Sweep) {
    print_header(workload, result.seed, "untraced pass");
    let repeats: usize = sweep.timings.iter().map(Vec::len).sum();
    for (metric, spec) in result.metrics.iter().zip(&END_TO_END) {
        print!(
            "   {:<24} {:>16.6} {:<6}",
            metric.name, metric.value, metric.unit
        );
        match result.samples.get(&metric.name) {
            Some(samples) => {
                let q = quartiles(samples);
                println!(
                    " per world: n={} ({repeats} timed runs) min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
                    q.n, q.min, q.q1, q.median, q.q3, q.max
                );
            }
            None if spec.exact => {
                println!(" exact for the seed, n={} worlds", sweep.outcomes.len())
            }
            None => println!(" n=1"),
        }
    }
    let q = quartiles(&sweep.slowdowns);
    println!(
        "   host times are calibrated seconds: wall seconds / machine slowdown, which was min {:.3} median {:.3} max {:.3} over n={}",
        q.min, q.median, q.max, q.n
    );
    print_verdict(result);
}

fn print_layers(workload: Workload, result: &RunResult, doc: &TraceDoc) {
    print_header(workload, result.seed, "traced pass");
    println!(
        "   {} traced worlds, {} threads available; 0 = layer not on this workload's path",
        workload.traced_worlds, doc.available_parallelism
    );
    for metric in &result.metrics {
        println!(
            "   {:<34} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!("   spans (traced runs; self = total minus child spans):");
    for (name, totals) in &doc.span_totals {
        println!(
            "     {:<24} n={:<3} total {:>10.6} s  self {:>10.6} s",
            name, totals.count, totals.total_s, totals.self_s
        );
    }
    println!("   estimated shares of untraced run time (outside-in, they need not sum to 1):");
    for metric in result
        .metrics
        .iter()
        .filter(|m| m.name.ends_with("_share_est") && m.value != 0.0)
    {
        println!("     {:<34} {:>8.4}", metric.name, metric.value);
    }
    print_verdict(result);
}

fn write_trace(doc: &TraceDoc, dir: Option<&str>) -> Result<PathBuf, String> {
    let dir = match dir {
        Some(dir) => PathBuf::from(dir),
        None => std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(PathBuf::from))
            .ok_or("cannot locate the binary's directory; pass --trace-dir")?,
    };
    let path = dir.join(format!("trace-{}.json", doc.workload));
    std::fs::write(&path, serde::json::to_string(doc) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn append_record(path: &str, result: &RunResult) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{}", result.record_json()).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for &workload in &args.workloads {
        let result = if args.traced {
            let (result, doc) = trace_pass(workload, args.seed, args.seconds);
            print_layers(workload, &result, &doc);
            let path = write_trace(&doc, args.trace_dir.as_deref())?;
            println!("   trace written to {}", path.display());
            result
        } else {
            let sweep = run_sweep(workload, args.seed, args.seconds);
            let result = end_to_end(workload, args.seed, &sweep);
            print_end_to_end(workload, &result, &sweep);
            result
        };
        if let Some(path) = &args.out {
            append_record(path, &result)?;
        }
        all_correct &= result.correct;
        // The contract line: last on standard output for a single
        // workload.
        println!("{}", result.contract_json());
    }
    Ok(all_correct)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let rows = compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err(format!("{a} and {b} share no workload"));
    }
    print!("{}", render(&rows));
    Ok(!rows.iter().any(|r| r.verdict.fails()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => run_compare(a, b),
        _ => match parse(&args) {
            Ok(args) => run(&args),
            Err(message) => {
                eprintln!("ert-benchmark: {message}\n\n{USAGE}\n\nworkloads:");
                for w in WORKLOADS {
                    eprintln!("  {:<16} {}", w.name, w.why);
                }
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ert-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
