//! Shared helpers for the Criterion benchmark harness.
//!
//! The bench targets under `benches/` (end-to-end and per-figure
//! timing lives in the `ert-benchmark` package at the repo root):
//!
//! * `micro_core` — microbenchmarks of the hot data structures
//!   (elastic-table updates, forwarding decisions, registry queries);
//! * `telemetry_overhead` — per-event-site cost of the telemetry layer,
//!   disabled (must stay branch-cheap) and enabled;
//! * `par_speedup` — wall time of a multi-seed batch at 1 vs. N
//!   workers (`ert-par`), emitting a machine-readable `BENCH_par.json`
//!   described by [`ParBenchRecord`];
//! * `core_hotloop` — single-run throughput of the simulator's
//!   lookup/forward/adapt hot loop, emitting `BENCH_core.json`
//!   described by [`CoreBenchRecord`].
//!
//! `BENCH_core.json` and `BENCH_par.json` are committed at the
//! workspace root as the repo's perf trajectory: every PR regenerates
//! them (quick mode in CI) and `ert-testkit`'s bench guards pin their
//! schema and sanity invariants. Absolute rates vary by machine, so
//! cross-file comparisons are tolerance-banded and opt-in — see
//! `ert_testkit::bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ert_experiments::Scenario;
use ert_network::{Network, NetworkConfig, ProtocolSpec};
use ert_overlay::CycloidSpace;
use ert_sim::SimRng;
use ert_workloads::{uniform_lookups, BoundedPareto};
use serde::{Deserialize, Serialize};

/// One timed worker configuration of the `par_speedup` bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParBenchPoint {
    /// Worker-thread count the batch ran with.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

/// The `BENCH_par.json` document: the batch shape, every timed point,
/// and the headline 1-vs-max-workers speedup. Timing varies by
/// machine, so consumers must rely on the schema only (see the
/// `par_bench_record_schema` guard test) — never on the numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParBenchRecord {
    /// Network size of the benched scenario.
    pub n: usize,
    /// Lookups per run.
    pub lookups: usize,
    /// Runs in the batch (seeds × protocols).
    pub batch_runs: usize,
    /// One entry per timed worker count, ascending.
    pub points: Vec<ParBenchPoint>,
    /// `wall(1 worker) / wall(max workers)`.
    pub speedup: f64,
    /// Whether every worker count produced byte-identical averages.
    pub byte_identical: bool,
}

impl ParBenchRecord {
    /// Serializes the record to the `BENCH_par.json` payload.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// The fixed bench scenario: deterministic, small enough for Criterion
/// iteration, large enough to exercise every code path.
pub fn bench_scenario() -> Scenario {
    let mut s = Scenario::quick(97);
    s.n = 128;
    s.lookups = 200;
    s
}

/// The shape of one `core_hotloop` measurement: the Table 2 default
/// scenario, or the reduced quick variant CI regenerates per PR.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CoreBenchScenario {
    /// Number of physical hosts.
    pub n: usize,
    /// Lookups injected.
    pub lookups: usize,
    /// Run seed (the workload and topology derive from it).
    pub seed: u64,
    /// True for the reduced CI shape, false for full Table 2 scale.
    pub quick: bool,
}

impl CoreBenchScenario {
    /// The reduced shape (matches [`bench_scenario`]'s size) CI times
    /// on every PR.
    pub fn quick() -> CoreBenchScenario {
        CoreBenchScenario {
            n: 128,
            lookups: 200,
            seed: 97,
            quick: true,
        }
    }

    /// The paper's Table 2 default scale (2048 hosts, 3000 lookups).
    pub fn table2() -> CoreBenchScenario {
        CoreBenchScenario {
            n: 2048,
            lookups: 3000,
            seed: 1,
            quick: false,
        }
    }
}

/// The `BENCH_core.json` document: one timed pass of the simulator's
/// hot loop under ERT/AF, broken out as engine-event, lookup, forward
/// (hop), and adaptation throughput. Rates vary by machine, so
/// consumers must rely on the schema and sanity invariants only (see
/// `ert_testkit::bench`) — never on the absolute numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreBenchRecord {
    /// The measured shape.
    pub scenario: CoreBenchScenario,
    /// Shard count of the event core the pass ran on: `1` is the
    /// sharded core run degenerately on one reactor, larger values
    /// split the population. Reports are byte-identical across shard
    /// counts, so only the wall-clock columns may differ between
    /// records sharing a scenario.
    pub shards: usize,
    /// Protocol under test (always ERT/AF — the full hot loop).
    pub protocol: String,
    /// Wall-clock seconds of the single `Network::run` pass.
    pub wall_seconds: f64,
    /// Engine events processed during the run.
    pub events_processed: u64,
    /// `events_processed / wall_seconds` — the headline rate.
    pub events_per_second: f64,
    /// Lookups that reached their owner.
    pub lookups_completed: u64,
    /// `lookups_completed / wall_seconds`.
    pub lookups_per_second: f64,
    /// Forwarding hops taken across all completed lookups.
    pub hops_forwarded: u64,
    /// `hops_forwarded / wall_seconds`.
    pub forwards_per_second: f64,
    /// Indegree-adaptation rounds the run executed.
    pub adapt_rounds: u64,
    /// `adapt_rounds / wall_seconds`.
    pub adapt_rounds_per_second: f64,
}

impl CoreBenchRecord {
    /// Serializes the record to the `BENCH_core.json` payload.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// Runs the core hot loop once at `shape` under ERT/AF on a
/// `shards`-way event core (0 = the legacy single loop) and returns
/// the timed throughput record. The workload derivation mirrors
/// `Scenario::build` (same capacity distribution and arrival process),
/// but drives [`Network`] directly so the engine-event and
/// adapt-round counters are readable after the run.
pub fn run_core_bench(shape: CoreBenchScenario, shards: usize) -> CoreBenchRecord {
    let mut rng = SimRng::seed_from(shape.seed.wrapping_mul(0x9e37_79b9));
    let capacities = BoundedPareto::paper_default().sample_n(shape.n, &mut rng.fork("capacities"));
    let dim = CycloidSpace::dimension_for(shape.n);
    let mut cfg = NetworkConfig::for_dimension(dim, shape.seed);
    cfg.shards = shards;
    let lookups = uniform_lookups(shape.lookups, shape.n as f64, &mut rng.fork("lookups"));
    let mut net =
        Network::new(cfg, &capacities, ProtocolSpec::ert_af()).expect("valid bench scenario");
    // Wall-clock measurement is this crate's purpose; ert-bench is
    // exempt from rule D1 (clippy.toml / ert-lint).
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let report = net.run(&lookups, &[]);
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let hops_forwarded = (report.mean_path_length * report.lookups_completed as f64).round() as u64;
    CoreBenchRecord {
        scenario: shape,
        shards,
        protocol: report.protocol.clone(),
        wall_seconds,
        events_processed: net.events_processed(),
        events_per_second: net.events_processed() as f64 / wall_seconds,
        lookups_completed: report.lookups_completed,
        lookups_per_second: report.lookups_completed as f64 / wall_seconds,
        hops_forwarded,
        forwards_per_second: hops_forwarded as f64 / wall_seconds,
        adapt_rounds: net.adapt_rounds(),
        adapt_rounds_per_second: net.adapt_rounds() as f64 / wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schema guard for `BENCH_par.json`: every key the record
    /// promises is present and round-trips. Deliberately no timing
    /// assertions — wall clocks belong to the bench, not the test
    /// suite.
    #[test]
    fn par_bench_record_schema() {
        let record = ParBenchRecord {
            n: 128,
            lookups: 200,
            batch_runs: 16,
            points: vec![
                ParBenchPoint {
                    workers: 1,
                    wall_seconds: 2.0,
                },
                ParBenchPoint {
                    workers: 4,
                    wall_seconds: 0.6,
                },
            ],
            speedup: 2.0 / 0.6,
            byte_identical: true,
        };
        let json = record.to_json();
        for key in [
            "\"n\":128",
            "\"lookups\":200",
            "\"batch_runs\":16",
            "\"points\":[",
            "\"workers\":1",
            "\"workers\":4",
            "\"wall_seconds\":",
            "\"speedup\":",
            "\"byte_identical\":true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    /// Schema guard for `BENCH_core.json`, same philosophy as the par
    /// record's: keys only, no timing assertions.
    #[test]
    fn core_bench_record_schema() {
        let record = CoreBenchRecord {
            scenario: CoreBenchScenario::quick(),
            shards: 1,
            protocol: "ERT/AF".into(),
            wall_seconds: 0.5,
            events_processed: 4000,
            events_per_second: 8000.0,
            lookups_completed: 200,
            lookups_per_second: 400.0,
            hops_forwarded: 900,
            forwards_per_second: 1800.0,
            adapt_rounds: 30,
            adapt_rounds_per_second: 60.0,
        };
        let json = record.to_json();
        for key in [
            "\"scenario\":{",
            "\"n\":128",
            "\"lookups\":200",
            "\"seed\":97",
            "\"quick\":true",
            "\"shards\":1",
            "\"protocol\":\"ERT/AF\"",
            "\"wall_seconds\":",
            "\"events_processed\":4000",
            "\"events_per_second\":",
            "\"lookups_completed\":200",
            "\"lookups_per_second\":",
            "\"hops_forwarded\":900",
            "\"forwards_per_second\":",
            "\"adapt_rounds\":30",
            "\"adapt_rounds_per_second\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    /// The quick core bench runs end-to-end and its counters satisfy
    /// the sanity invariants the testkit guard pins on the committed
    /// file: every lookup completed needs at least one engine event,
    /// rates are positive, and the shape matches the request.
    #[test]
    fn core_bench_runs_and_counts_sensibly() {
        let record = run_core_bench(CoreBenchScenario::quick(), 1);
        assert_eq!(record.scenario.n, 128);
        assert_eq!(record.protocol, "ERT/AF");
        assert!(record.lookups_completed > 0);
        assert!(record.events_processed >= record.lookups_completed);
        assert!(record.events_processed >= record.hops_forwarded);
        assert!(record.adapt_rounds > 0);
        assert!(record.wall_seconds > 0.0);
        assert!(record.events_per_second > 0.0);
    }

    /// The core bench is a fixed-seed world: the simulation counters
    /// (everything but wall time) are identical across passes — and
    /// across shard counts, the bench-level view of the shard-count
    /// invariance contract.
    #[test]
    fn core_bench_counters_are_deterministic_across_shard_counts() {
        let a = run_core_bench(CoreBenchScenario::quick(), 1);
        for shards in [1, 8] {
            let b = run_core_bench(CoreBenchScenario::quick(), shards);
            assert_eq!(a.events_processed, b.events_processed, "S={shards}");
            assert_eq!(a.lookups_completed, b.lookups_completed, "S={shards}");
            assert_eq!(a.hops_forwarded, b.hops_forwarded, "S={shards}");
            assert_eq!(a.adapt_rounds, b.adapt_rounds, "S={shards}");
        }
    }

    #[test]
    fn scenario_is_fixed() {
        let a = bench_scenario();
        let b = bench_scenario();
        assert_eq!(a.n, b.n);
        assert_eq!(a.seeds, b.seeds);
    }

    /// Coarse guard on the disabled telemetry path. The precise number
    /// comes from the `telemetry_overhead` bench (expected < 5 ns per
    /// site in release mode); this test only catches regressions that
    /// make the disabled path do real work — the bound is deliberately
    /// loose because debug builds and noisy CI inflate wall time.
    #[test]
    fn disabled_telemetry_stays_branch_cheap() {
        use ert_sim::SimTime;
        use ert_telemetry::{Telemetry, TelemetryEvent};

        let mut tel = Telemetry::disabled();
        let sites = 2_000_000u64;
        // Timing measurement is this crate's purpose; ert-bench is
        // exempt from rule D1 (clippy.toml / ert-lint).
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        for i in 0..sites {
            tel.emit(SimTime::from_micros(i), || TelemetryEvent::LookupHop {
                q: std::hint::black_box(i),
                from: i,
                to: i + 1,
            });
        }
        let per_site = started.elapsed().as_nanos() as f64 / sites as f64;
        assert_eq!(tel.events_emitted(), 0);
        assert!(
            per_site < 200.0,
            "disabled emit costs {per_site:.1} ns/site"
        );
    }
}
