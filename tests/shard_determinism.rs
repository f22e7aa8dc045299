//! Shard-count invariance pins for the shared-nothing sharded event
//! core (`ert_sim::ShardedEngine`): running the simulation on `S`
//! single-threaded shard reactors must be **byte-identical** to the
//! legacy single global event loop, for every shard count, every
//! workload shape, and every protocol — including non-power-of-two
//! shard counts that exercise the static remap table, and schedules
//! that pile churn, faults, and adversaries onto one instant.
//!
//! Byte-identical means exactly that: reports are compared through
//! their full JSON serialization, so every field — counters, float
//! digests, correlations — must match to the last bit. The shard
//! count is pure affinity, never correctness: events carry one global
//! sequence number assigned in schedule order, and the barrier merge
//! pops by the same canonical `(time, seq)` key the single queue uses.

use ert_repro::baselines::all_protocols;
use ert_repro::experiments::{ChurnSpec, Scenario, Workload};
use ert_repro::network::{Network, NetworkConfig, ProtocolSpec};
use ert_repro::overlay::CycloidSpace;
use ert_repro::sim::SimRng;
use ert_repro::workloads::{uniform_lookups, BoundedPareto};

/// The shard counts every pin sweeps: the degenerate single shard, a
/// power of two, and a non-power-of-two count whose remap table folds
/// four prefix buckets onto three shards.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn small(seed: u64) -> Scenario {
    let mut s = Scenario::quick(seed);
    s.n = 96;
    s.lookups = 120;
    s.seeds = vec![1, 2];
    s
}

/// The four workload shapes the harness supports.
fn shapes() -> Vec<(&'static str, Scenario)> {
    let uniform = small(1);
    let mut impulse = small(2);
    impulse.workload = Workload::Impulse { nodes: 12, keys: 4 };
    let mut churn = small(3);
    churn.churn = Some(ChurnSpec {
        join_interarrival: 0.4,
        leave_interarrival: 0.4,
    });
    let mut chaos = small(4);
    chaos.chaos = Some(0.5);
    vec![
        ("uniform", uniform),
        ("impulse", impulse),
        ("churn", churn),
        ("chaos", chaos),
    ]
}

/// Every workload shape × every protocol: the sharded core at S ∈
/// {1, 2, 3, 8} equals the legacy single event loop (`shards = 0`)
/// byte for byte. The chaos shape runs a full fault plan through the
/// sharded core; the churn shape exercises joins (which extend the
/// host→shard affinity table mid-run).
#[test]
fn sharded_reports_are_byte_identical_to_the_single_loop() {
    for (label, mut s) in shapes() {
        let specs = all_protocols(s.n);
        s.shards = 0;
        let legacy = serde::json::to_string(&s.run_all(&specs));
        for shards in SHARD_COUNTS {
            s.shards = shards;
            let sharded = serde::json::to_string(&s.run_all(&specs));
            assert_eq!(
                legacy, sharded,
                "{label}: shard count {shards} leaked into output"
            );
        }
    }
}

/// Sharding composes with the parallel sweep executor: a sharded
/// batch fanned across 4 workers equals the legacy sequential
/// reference. (`ert-par` discipline D7 — ordered fan-out — and the
/// shard barrier protocol must not interact.)
#[test]
fn sharded_core_composes_with_parallel_sweeps() {
    let (label, mut s) = shapes().remove(2); // churn: the hardest shape
    let specs = all_protocols(s.n);
    s.jobs = Some(1);
    s.shards = 0;
    let legacy = serde::json::to_string(&s.run_all(&specs));
    s.jobs = Some(4);
    s.shards = 3;
    let sharded = serde::json::to_string(&s.run_all(&specs));
    assert_eq!(legacy, sharded, "{label}: jobs × shards leaked into output");
}

fn build(n: usize, seed: u64, shards: usize, spec: ProtocolSpec) -> (Network, SimRng) {
    let mut rng = SimRng::seed_from(seed);
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
    let mut cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), seed);
    cfg.shards = shards;
    (
        Network::new(cfg, &capacities, spec).expect("valid network"),
        rng,
    )
}

/// The mixed fault + adversary schedule from `failure_injection.rs` —
/// churn, crashes, degradation, message drops, routing defectors,
/// capacity liars, a sybil swarm, and a query flood all landing on one
/// instant — re-run on the sharded core: every shard count produces
/// the legacy report byte for byte, and the canonical-order
/// tie-breaking that makes the schedule permutation-invariant on the
/// single loop holds sharded too.
#[test]
fn mixed_fault_and_adversary_schedule_is_shard_invariant() {
    use ert_repro::faults::{FaultEvent, FaultKind, FaultPlan};
    use ert_repro::sim::SimDuration;

    let run = |shards: usize, reverse_plans: bool| {
        let (mut net, mut rng) = build(192, 405, shards, ProtocolSpec::ert_af());
        let lookups = uniform_lookups(300, 192.0, &mut rng);
        let mid = lookups[150].at;
        let mut plan = FaultPlan::new(9);
        plan.events = vec![
            FaultEvent {
                at: mid,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: mid,
                kind: FaultKind::Degrade { factor: 2.0 },
            },
            FaultEvent {
                at: mid,
                kind: FaultKind::DropMessages {
                    p: 0.1,
                    window: SimDuration::from_secs_f64(0.5),
                },
            },
            FaultEvent {
                at: mid,
                kind: FaultKind::RoutingDefector { fraction: 0.15 },
            },
            FaultEvent {
                at: mid,
                kind: FaultKind::CapacityLiar {
                    fraction: 0.2,
                    error: 4.0,
                },
            },
            FaultEvent {
                at: mid,
                kind: FaultKind::SybilSwarm {
                    count: 6,
                    region: 0.4,
                },
            },
            FaultEvent {
                at: mid,
                kind: FaultKind::QueryFlood {
                    key: 0.37,
                    queries: 60,
                    window: SimDuration::from_secs_f64(0.4),
                },
            },
        ];
        if reverse_plans {
            plan.events.reverse();
        }
        format!("{:?}", net.run_with_faults(&lookups, &[], &plan))
    };

    let legacy = run(0, false);
    for shards in SHARD_COUNTS {
        assert_eq!(
            legacy,
            run(shards, false),
            "shard count {shards} leaked into the mixed-plan report"
        );
        assert_eq!(
            legacy,
            run(shards, true),
            "plan permutation leaked at shard count {shards}"
        );
    }
}

/// The acceptance pin at paper scale: the Table 2 default population
/// (n = 2048) is byte-identical between S = 1 and S = 8, with the
/// invariant sanitizer armed (debug builds always arm it; the release
/// CI job runs this suite with `--features sanitize`). Release-only:
/// a debug-build run of this population takes minutes.
#[cfg(not(debug_assertions))]
#[test]
fn table2_default_population_is_shard_invariant() {
    let mut s = Scenario::quick(1);
    s.n = 2048;
    s.lookups = 3000;
    s.seeds = vec![1];
    s.shards = 1;
    let spec = ProtocolSpec::ert_af();
    let one = serde::json::to_string(&s.run(&spec));
    s.shards = 8;
    let eight = serde::json::to_string(&s.run(&spec));
    assert_eq!(one, eight, "S=1 and S=8 diverged at Table 2 scale");
}

/// Scale smoke (ignored by default; run with `--ignored --release`):
/// a sharded n = 65536 population completes a lookup burst, actually
/// routes traffic across shards, and loses nothing.
#[test]
#[ignore = "n=65536 scale run; minutes in release — invoke explicitly"]
fn sharded_65536_node_run_completes() {
    let (mut net, mut rng) = build(65536, 406, 8, ProtocolSpec::ert_af());
    let lookups = uniform_lookups(2000, 65536.0, &mut rng);
    let report = net.run(&lookups, &[]);
    assert_eq!(report.lookups_completed + report.lookups_dropped, 2000);
    assert!(
        report.lookups_completed >= 1990,
        "completed only {}",
        report.lookups_completed
    );
    let stats = net.shard_stats().expect("sharded run must expose stats");
    assert!(stats.cross_shard_messages > 0, "no cross-shard traffic");
    assert!(stats.barrier_drains > 0, "no barrier drains");
}
