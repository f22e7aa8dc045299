//! Command-line handling for the `figures` binary: one [`Args`] value
//! parsed once, failing closed.
//!
//! `figures [<name>...]` selects rows of the experiment table
//! ([`crate::catalog`]); no name selects every row. A malformed value,
//! an unknown flag or an unknown name is an [`ArgError`] — `figures`
//! prints it with [`usage`] and exits 2 before any sweep starts. The
//! contract: **with no flag, a run writes the committed `results/`
//! bytes**. `--quick` and `--seeds` are for exploration and change
//! them; every other flag changes only how fast a run emits them or
//! what side-channel observability it produces:
//!
//! - `--quick` — laptop-CI scale and one seed instead of Table 2 scale
//!   and [`crate::catalog::SEEDS`];
//! - `--seeds <K>` — seeds `1..=K` to average over;
//! - `--jobs <N>` — worker threads for the parallel fan-out; the
//!   default is every available core, and any value produces
//!   byte-identical output (see `ert-par`; `--jobs 1` is the
//!   sequential reference);
//! - `--shards <S>` — shard count for the shared-nothing sharded
//!   event core (see `ert_sim::ShardedEngine`); `0`/absent selects the
//!   legacy single event loop, and any value is byte-identical to it
//!   (pinned by `tests/shard_determinism.rs`);
//!
//! and the telemetry trio:
//!
//! - `--telemetry <path.jsonl>` — stream structured events, periodic
//!   snapshots, and the end-of-run report to a JSONL file, opened
//!   before the sweep so an unwritable path fails at once;
//! - `--sample-interval <secs>` — snapshot cadence on the sim clock
//!   (default 1 s when `--telemetry` is given; `0` disables the
//!   sampler);
//! - `--trace <N>` — retain the last `N` events in the human-readable
//!   trace ring and print them to stderr after the run.
//!
//! Sweeps average many runs, so instrumenting all of them would
//! interleave streams; instead [`TelemetryOpts::capture`] performs one
//! *representative* instrumented run (first seed, ERT/AF) whose stream
//! is the observability artifact: the selected row's own shape when
//! one row is selected, the plain base scenario otherwise. The sweep
//! itself stays untouched — and because observation never perturbs the
//! simulation, the captured run reproduces the sweep's data point
//! exactly.

use std::fmt;
use std::io;
use std::path::PathBuf;

use ert_network::ProtocolSpec;
use ert_sim::SimDuration;
use ert_telemetry::{JsonlSink, Telemetry};

use crate::catalog::{find, Experiment, EXPERIMENTS};
use crate::Scenario;

/// The parsed `figures` command line.
#[derive(Default)]
pub struct Args {
    /// The selected rows in table order, without duplicates; every
    /// row when no name was given.
    pub rows: Vec<&'static Experiment>,
    /// `--quick`.
    pub quick: bool,
    /// `--seeds`, when given.
    pub seeds: Option<usize>,
    /// `--jobs`, when given (`None` = every available core).
    pub jobs: Option<usize>,
    /// `--shards` (0 = the legacy single event loop).
    pub shards: usize,
    /// The telemetry trio.
    pub telemetry: TelemetryOpts,
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// A positional argument that names no row of the table.
    UnknownExperiment(String),
    /// A `-`-prefixed argument that is no flag of `figures`.
    UnknownFlag(String),
    /// A flag that takes a value stood last or before another flag.
    MissingValue(&'static str),
    /// A flag's value did not parse or is out of range.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        value: String,
        /// What the flag accepts.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownExperiment(name) => write!(f, "unknown experiment `{name}`"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "`{flag} {value}`: expected {expected}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut it = args.into_iter();
        let mut parsed = Args::default();
        let mut names: Vec<&str> = Vec::new();
        let mut sample_interval = None;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--seeds" => {
                    parsed.seeds = Some(number("--seeds", &mut it, POSITIVE, 1..=usize::MAX)?);
                }
                "--jobs" => {
                    parsed.jobs = Some(number("--jobs", &mut it, POSITIVE, 1..=usize::MAX)?);
                }
                "--shards" => parsed.shards = number("--shards", &mut it, NATURAL, 0..=usize::MAX)?,
                "--telemetry" => {
                    parsed.telemetry.jsonl_path = Some(value("--telemetry", &mut it)?.into());
                }
                "--sample-interval" => {
                    let secs = number("--sample-interval", &mut it, SECONDS, 0.0..=f64::MAX)?;
                    sample_interval = Some(secs);
                }
                "--trace" => {
                    parsed.telemetry.trace_capacity =
                        number("--trace", &mut it, NATURAL, 0..=usize::MAX)?;
                }
                flag if flag.starts_with('-') => return Err(ArgError::UnknownFlag(arg)),
                name => match find(name) {
                    Some(row) => names.push(row.name),
                    None => return Err(ArgError::UnknownExperiment(arg)),
                },
            }
        }
        parsed.rows = EXPERIMENTS
            .iter()
            .filter(|e| names.is_empty() || names.contains(&e.name))
            .collect();
        let default_interval = if parsed.telemetry.jsonl_path.is_some() {
            1.0
        } else {
            0.0
        };
        parsed.telemetry.sample_interval_secs = sample_interval.unwrap_or(default_interval);
        Ok(parsed)
    }
}

/// The value following `flag`.
fn value(flag: &'static str, it: &mut impl Iterator<Item = String>) -> Result<String, ArgError> {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .ok_or(ArgError::MissingValue(flag))
}

/// What the numeric flags accept, as [`ArgError::BadValue`] words it.
const POSITIVE: &str = "an integer >= 1";
const NATURAL: &str = "a non-negative integer";
const SECONDS: &str = "seconds >= 0";

/// The value following `flag`, parsed and range-checked (NaN is in no
/// range).
fn number<T: std::str::FromStr + PartialOrd>(
    flag: &'static str,
    it: &mut impl Iterator<Item = String>,
    expected: &'static str,
    range: std::ops::RangeInclusive<T>,
) -> Result<T, ArgError> {
    let value = value(flag, it)?;
    match value.parse() {
        Ok(parsed) if range.contains(&parsed) => Ok(parsed),
        _ => Err(ArgError::BadValue {
            flag,
            value,
            expected,
        }),
    }
}

/// The usage text `figures` prints beside an [`ArgError`]: every flag
/// and every row of the table.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: figures [<name>...] [--quick] [--seeds K] [--jobs N] [--shards S]\n               \
         [--telemetry <path.jsonl>] [--sample-interval <secs>] [--trace N]\n\n\
         Runs the named experiments (no name: every one) and writes their tables\n\
         to ./results/*.csv.\n\n",
    );
    for e in &EXPERIMENTS {
        text.push_str(&format!("  {}\n", e.name));
    }
    text
}

/// Parsed telemetry flags.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOpts {
    /// Target of `--telemetry`, when given.
    pub jsonl_path: Option<PathBuf>,
    /// `--sample-interval` in seconds (0 = sampler off).
    pub sample_interval_secs: f64,
    /// `--trace` ring capacity (0 = trace off).
    pub trace_capacity: usize,
}

impl TelemetryOpts {
    /// Whether any flag asked for an instrumented run.
    pub fn active(&self) -> bool {
        self.jsonl_path.is_some() || self.sample_interval_secs > 0.0 || self.trace_capacity > 0
    }

    /// Builds the telemetry pipeline the flags describe, creating the
    /// `--telemetry` file; `None` when no flag asked for one.
    ///
    /// # Errors
    ///
    /// The file cannot be created; the error names the path.
    pub fn build(&self) -> io::Result<Option<Telemetry>> {
        if !self.active() {
            return Ok(None);
        }
        let mut tel = Telemetry::with_trace_capacity(self.trace_capacity);
        if let Some(path) = &self.jsonl_path {
            let sink = JsonlSink::create(path).map_err(|e| {
                io::Error::new(e.kind(), format!("cannot create {}: {e}", path.display()))
            })?;
            tel.add_sink(Box::new(sink));
        }
        Ok(Some(tel))
    }

    /// Performs the representative instrumented run of `scenario`
    /// under `spec` (first seed) into `telemetry` (from
    /// [`TelemetryOpts::build`]), writes the JSONL stream / prints the
    /// trace ring, and reports what was captured on stderr. `tweak` is
    /// the config tweak the surrounding sweep used (e.g. a retry
    /// policy), so the captured run reproduces the sweep's data point.
    pub fn capture(
        &self,
        telemetry: Telemetry,
        scenario: &Scenario,
        spec: &ProtocolSpec,
        tweak: impl FnOnce(&mut ert_network::NetworkConfig),
    ) {
        let seed = scenario.seeds.first().copied().unwrap_or(1);
        let interval = SimDuration::from_secs_f64(self.sample_interval_secs.max(0.0));
        let (report, telemetry) = scenario.run_once_instrumented(
            spec,
            seed,
            |cfg| {
                cfg.sample_interval = interval;
                tweak(cfg);
            },
            telemetry,
        );
        eprintln!(
            "[telemetry] {} seed {seed}: {} events, {} snapshots, {} lookups in {:.1}s sim",
            spec.name,
            telemetry.events_emitted(),
            telemetry.snapshots().len(),
            report.lookups_completed,
            report.sim_seconds,
        );
        if let Some(path) = &self.jsonl_path {
            eprintln!("[telemetry] stream written to {}", path.display());
        }
        if self.trace_capacity > 0 {
            eprint!("{}", telemetry.render_trace());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, ArgError> {
        Args::parse(s.iter().map(|a| (*a).to_owned()))
    }

    fn names(args: &Args) -> Vec<&'static str> {
        args.rows.iter().map(|e| e.name).collect()
    }

    fn bad(flag: &'static str, value: &str, expected: &'static str) -> ArgError {
        ArgError::BadValue {
            flag,
            value: value.to_owned(),
            expected,
        }
    }

    #[test]
    fn no_name_selects_every_row_and_names_select_in_table_order() {
        let all = parse(&["--quick"]).unwrap();
        assert_eq!(all.rows.len(), EXPERIMENTS.len());
        let some = parse(&["resilience", "fig7", "fig4", "fig7"]).unwrap();
        assert_eq!(names(&some), ["fig4", "fig7", "resilience"]);
        assert_eq!(
            parse(&["fig4", "fig11"]).err(),
            Some(ArgError::UnknownExperiment("fig11".into()))
        );
    }

    #[test]
    fn shared_flags_parse() {
        let a = parse(&[
            "fig4", "--quick", "--seeds", "3", "--jobs", "4", "--shards", "8",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!((a.seeds, a.jobs, a.shards), (Some(3), Some(4), 8));
        let d = parse(&["fig4"]).unwrap();
        assert!(!d.quick);
        assert_eq!((d.seeds, d.jobs, d.shards), (None, None, 0));
        assert_eq!(parse(&["fig4", "--shards", "0"]).unwrap().shards, 0);
    }

    #[test]
    fn malformed_values_and_unknown_flags_are_errors() {
        for (flag, value, expected) in [
            ("--seeds", "abc", POSITIVE),
            ("--seeds", "0", POSITIVE),
            ("--jobs", "lots", POSITIVE),
            ("--jobs", "0", POSITIVE),
            ("--shards", "many", NATURAL),
            ("--trace", "-1", NATURAL),
            ("--sample-interval", "x", SECONDS),
            ("--sample-interval", "inf", SECONDS),
        ] {
            let err = parse(&[flag, value]).err();
            assert_eq!(err, Some(bad(flag, value, expected)));
        }
        let err = |args: &[&str]| parse(args).err();
        assert_eq!(err(&["--jobs"]), Some(ArgError::MissingValue("--jobs")));
        let missing = Some(ArgError::MissingValue("--seeds"));
        assert_eq!(err(&["--seeds", "--quick"]), missing);
        let unknown = Some(ArgError::UnknownFlag("--quik".into()));
        assert_eq!(err(&["fig4", "--quik"]), unknown);
        // The deleted streaming-statistics flag fails closed instead of
        // silently running exact statistics. It is spelled in two parts
        // so a grep for the flag finds no live use of it.
        let removed = concat!("--stream", "-stats");
        let unknown = Some(ArgError::UnknownFlag(removed.into()));
        assert_eq!(err(&["fig4", removed]), unknown);
    }

    #[test]
    fn telemetry_defaults_are_inert() {
        let o = parse(&["fig4", "--quick"]).unwrap().telemetry;
        assert!(!o.active());
        assert_eq!(o.sample_interval_secs, 0.0);
        assert_eq!(o.trace_capacity, 0);
        assert!(o.build().unwrap().is_none());
    }

    #[test]
    fn telemetry_flag_implies_default_sampling() {
        let o = parse(&["fig4", "--telemetry", "run.jsonl"])
            .unwrap()
            .telemetry;
        assert!(o.active());
        assert_eq!(
            o.jsonl_path.as_deref().unwrap().to_str().unwrap(),
            "run.jsonl"
        );
        assert_eq!(o.sample_interval_secs, 1.0);
    }

    #[test]
    fn explicit_interval_and_trace_parse() {
        let o = parse(&[
            "fig4",
            "--telemetry",
            "x.jsonl",
            "--sample-interval",
            "0.25",
            "--trace",
            "512",
        ])
        .unwrap()
        .telemetry;
        assert_eq!(o.sample_interval_secs, 0.25);
        assert_eq!(o.trace_capacity, 512);
    }

    #[test]
    fn trace_alone_activates_without_sink() {
        let o = parse(&["fig4", "--trace", "64"]).unwrap().telemetry;
        assert!(o.active());
        assert!(o.jsonl_path.is_none());
        assert!(o.build().unwrap().unwrap().is_enabled());
    }

    #[test]
    fn unwritable_telemetry_path_is_an_error_not_a_panic() {
        let o = parse(&["fig4", "--telemetry", "/nonexistent-dir/run.jsonl"])
            .unwrap()
            .telemetry;
        assert!(o.build().is_err());
    }

    #[test]
    fn capture_writes_jsonl_with_events_snapshots_and_report() {
        let dir = std::env::temp_dir().join("ert_cli_capture_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.jsonl");
        let opts = TelemetryOpts {
            jsonl_path: Some(path.clone()),
            sample_interval_secs: 0.5,
            trace_capacity: 0,
        };
        let mut scenario = Scenario::quick(11);
        scenario.n = 96;
        scenario.lookups = 150;
        let telemetry = opts.build().unwrap().unwrap();
        opts.capture(telemetry, &scenario, &ProtocolSpec::ert_af(), |_| {});
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|l| l.starts_with("{\"kind\":\"event\"")));
        assert!(text
            .lines()
            .any(|l| l.starts_with("{\"kind\":\"snapshot\"")));
        assert!(text.lines().any(|l| l.starts_with("{\"kind\":\"report\"")));
        std::fs::remove_file(&path).ok();
    }
}
