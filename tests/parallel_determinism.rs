//! Golden tests for the parallel sweep executor (`ert-par`): fanning a
//! batch across worker threads must be **byte-identical** to running it
//! sequentially, for every workload shape and protocol — and identical
//! to what the harness produced before it was parallel at all (the
//! pinned report below predates `ert-par` and was captured from the
//! sequential per-seed loop).
//!
//! Byte-identical means exactly that: reports are compared through
//! their full JSON serialization, so every field — counters, float
//! digests, correlations — must match to the last bit.

use ert_repro::baselines::{all_protocols, base};
use ert_repro::experiments::{try_run_batch, ChurnSpec, RunCell, Scenario, Workload};
use ert_repro::network::ProtocolSpec;
use ert_repro::sim::SimDuration;

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

/// Every scenario shape × every protocol: `--jobs 4` output equals the
/// sequential (`--jobs 1`) reference byte for byte.
#[test]
fn parallel_batch_is_byte_identical_to_sequential() {
    for (label, mut s) in shapes() {
        let specs = all_protocols(s.n);
        s.jobs = Some(1);
        let sequential = serde::json::to_string(&s.run_all(&specs));
        s.jobs = Some(4);
        let parallel = serde::json::to_string(&s.run_all(&specs));
        assert_eq!(
            sequential, parallel,
            "{label}: worker count leaked into output"
        );
    }
}

/// Pins one averaged ERT/AF report against values captured **before**
/// the executor existed (sequential per-seed loop, same scenario).
/// Field-by-field first for readable failures, then the whole record.
#[test]
fn parallel_average_matches_the_pre_parallel_pin() {
    let mut s = Scenario::quick(1);
    s.n = 128;
    s.lookups = 200;
    s.seeds = vec![1, 2];
    s.jobs = Some(4);
    let r = s.run(&ProtocolSpec::ert_af());

    assert_eq!(r.protocol, "ERT/AF");
    assert_eq!(r.lookups_started, 200);
    assert_eq!(r.lookups_completed, 200);
    assert_eq!(r.lookups_dropped, 0);
    assert_eq!(r.lookups_failed, 0);
    assert_eq!(r.p99_max_congestion, 1.225);
    assert_eq!(r.p99_min_capacity_congestion, 0.375);
    assert_eq!(r.p99_share, 3.0710428624827837);
    assert_eq!(r.heavy_encounters, 4);
    assert_eq!(r.mean_path_length, 4.045);
    assert_eq!(r.lookup_time.count, 200);
    assert_eq!(r.lookup_time.mean, 1.9343414625000004);
    assert_eq!(r.lookup_time.p01, 0.40871500000000005);
    assert_eq!(r.lookup_time.p50, 1.775423);
    assert_eq!(r.lookup_time.p99, 5.831982);
    assert_eq!(r.lookup_time.max, 6.1970659999999995);
    assert_eq!(r.max_indegree.count, 128);
    assert_eq!(r.max_indegree.mean, 12.5390625);
    assert_eq!(r.max_indegree.p01, 4.0);
    assert_eq!(r.max_indegree.p50, 9.5);
    assert_eq!(r.max_indegree.p99, 31.0);
    assert_eq!(r.max_indegree.max, 32.5);
    assert_eq!(r.max_outdegree.count, 128);
    assert_eq!(r.max_outdegree.mean, 20.12890625);
    assert_eq!(r.max_outdegree.p01, 10.5);
    assert_eq!(r.max_outdegree.p50, 18.5);
    assert_eq!(r.max_outdegree.p99, 34.0);
    assert_eq!(r.max_outdegree.max, 34.5);
    assert_eq!(r.utilization.count, 128);
    assert_eq!(r.utilization.mean, 0.2201248436861208);
    assert_eq!(r.utilization.p01, 0.027485007762401623);
    assert_eq!(r.utilization.p50, 0.19239505433681137);
    assert_eq!(r.utilization.p99, 0.5497001552480325);
    assert_eq!(r.utilization.max, 0.9140154481573086);
    assert_eq!(r.capacity_utilization_correlation, 0.10934767083094893);
    assert_eq!(r.timeouts_per_lookup, 0.0);
    assert_eq!(r.handoffs_per_lookup, 0.0);
    assert_eq!(r.retries_per_lookup, 0.0);
    assert_eq!(r.probes_per_decision, 1.8176673893811395);
    assert_eq!(r.maintenance_per_lookup, 8.39);
    assert_eq!(r.sim_seconds, 7.3125095);

    // The whole record at once — any field added later is pinned too.
    let pinned = concat!(
        "{\"protocol\":\"ERT/AF\",\"lookups_started\":200,\"lookups_completed\":200,",
        "\"lookups_dropped\":0,\"lookups_failed\":0,\"p99_max_congestion\":1.225,",
        "\"p99_min_capacity_congestion\":0.375,\"p99_share\":3.0710428624827837,",
        "\"heavy_encounters\":4,\"mean_path_length\":4.045,",
        "\"lookup_time\":{\"count\":200,\"mean\":1.9343414625000004,",
        "\"p01\":0.40871500000000005,\"p50\":1.775423,\"p99\":5.831982,",
        "\"max\":6.1970659999999995},",
        "\"max_indegree\":{\"count\":128,\"mean\":12.5390625,\"p01\":4.0,\"p50\":9.5,",
        "\"p99\":31.0,\"max\":32.5},",
        "\"max_outdegree\":{\"count\":128,\"mean\":20.12890625,\"p01\":10.5,\"p50\":18.5,",
        "\"p99\":34.0,\"max\":34.5},",
        "\"utilization\":{\"count\":128,\"mean\":0.2201248436861208,",
        "\"p01\":0.027485007762401623,\"p50\":0.19239505433681137,",
        "\"p99\":0.5497001552480325,\"max\":0.9140154481573086},",
        "\"capacity_utilization_correlation\":0.10934767083094893,",
        "\"timeouts_per_lookup\":0.0,\"handoffs_per_lookup\":0.0,",
        "\"retries_per_lookup\":0.0,\"probes_per_decision\":1.8176673893811395,",
        "\"maintenance_per_lookup\":8.39,\"sim_seconds\":7.3125095}",
    );
    assert_eq!(serde::json::to_string(&r), pinned);
}

/// A poisoned cell (config rejected by `Network::new`) surfaces as a
/// structured error naming the offending seed while the rest of the
/// batch drains to intact reports.
#[test]
fn poisoned_cell_is_contained_and_named() {
    let s = small(5);
    let spec = base();
    let seeds = [1, 2, 3, 4];
    let cells = seeds
        .iter()
        .map(|&seed| RunCell {
            scenario: &s,
            spec: &spec,
            seed,
            tweak: Box::new(|cfg| {
                if cfg.seed == 3 {
                    cfg.light_service = SimDuration::ZERO; // invalid: rejected by Network::new
                }
            }),
        })
        .collect();
    let outcomes = try_run_batch(4, cells);
    assert_eq!(outcomes.len(), 4);
    for (seed, outcome) in seeds.iter().zip(&outcomes) {
        if *seed == 3 {
            let err = outcome.as_ref().expect_err("poisoned seed must fail");
            assert_eq!(err.seed, 3);
            assert_eq!(err.protocol, "Base");
            assert!(
                err.message.contains("light service"),
                "message: {}",
                err.message
            );
            assert!(err.to_string().contains("seed 3"), "display: {err}");
        } else {
            let report = outcome.as_ref().expect("healthy seeds stay intact");
            assert_eq!(report.lookups_started, 120);
        }
    }
}
