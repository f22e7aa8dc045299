//! Failure injection: correlated mass departures rather than the
//! smooth Poisson churn of Section 5.5.

use ert_repro::network::{ChurnEvent, Network, NetworkConfig, ProtocolSpec};
use ert_repro::overlay::CycloidSpace;
use ert_repro::sim::SimRng;
use ert_repro::workloads::{uniform_lookups, BoundedPareto};

fn build(n: usize, seed: u64, spec: ProtocolSpec) -> (Network, SimRng) {
    let mut rng = SimRng::seed_from(seed);
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
    let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), seed);
    (
        Network::new(cfg, &capacities, spec).expect("valid network"),
        rng,
    )
}

/// Kill ~30% of the network at one instant mid-run: lookups keep
/// completing through ring repair and candidate sets.
#[test]
fn survives_mass_failure() {
    for spec in [ProtocolSpec::ert_af(), ert_repro::baselines::base()] {
        let name = spec.name.clone();
        let (mut net, mut rng) = build(256, 400, spec);
        let lookups = uniform_lookups(500, 256.0, &mut rng);
        let mid = lookups[lookups.len() / 2].at;
        let blast: Vec<ChurnEvent> = (0..77).map(|_| ChurnEvent::Leave { at: mid }).collect();
        let report = net.run(&lookups, &blast);
        assert_eq!(
            report.lookups_completed + report.lookups_dropped,
            500,
            "{name}"
        );
        assert!(
            report.lookups_completed >= 470,
            "{name} completed only {}",
            report.lookups_completed
        );
        // ~30% of hosts are gone.
        let alive = net.topology().hosts.iter().filter(|h| h.alive).count();
        assert_eq!(alive, 256 - 77, "{name}");
    }
}

/// A failure burst followed by a recovery wave of joins: the network
/// re-absorbs the load and new nodes become routable.
#[test]
fn recovers_after_failure_burst() {
    let (mut net, mut rng) = build(192, 401, ProtocolSpec::ert_af());
    let lookups = uniform_lookups(600, 192.0, &mut rng);
    let t_fail = lookups[150].at;
    let t_recover = lookups[300].at;
    let mut churn: Vec<ChurnEvent> = (0..48).map(|_| ChurnEvent::Leave { at: t_fail }).collect();
    churn.extend((0..48).map(|i| ChurnEvent::Join {
        at: t_recover + ert_repro::sim::SimDuration::from_micros(i),
        capacity: 1200.0,
    }));
    let report = net.run(&lookups, &churn);
    assert!(
        report.lookups_completed >= 570,
        "completed {}",
        report.lookups_completed
    );
    let alive = net.topology().hosts.iter().filter(|h| h.alive).count();
    assert_eq!(alive, 192); // back to full strength
                            // Joined nodes actually participate: at least one has inlinks.
    let joined_with_inlinks = net
        .topology()
        .hosts
        .iter()
        .skip(192)
        .flat_map(|h| &h.nodes)
        .filter(|&&n| net.topology().nodes[n].table.indegree() > 0)
        .count();
    assert!(
        joined_with_inlinks > 24,
        "only {joined_with_inlinks} recovered nodes wired in"
    );
}

/// Lookups injected *during* the failure instant are not lost.
#[test]
fn in_flight_queries_survive_the_blast() {
    let (mut net, mut rng) = build(192, 402, ProtocolSpec::ert_af());
    let lookups = uniform_lookups(300, 1920.0, &mut rng); // compressed burst
    let mid = lookups[150].at;
    let blast: Vec<ChurnEvent> = (0..57).map(|_| ChurnEvent::Leave { at: mid }).collect();
    let report = net.run(&lookups, &blast);
    assert_eq!(report.lookups_completed + report.lookups_dropped, 300);
    assert!(
        report.lookups_dropped <= 6,
        "dropped {}",
        report.lookups_dropped
    );
    // Handoffs happened (queries were stranded and rescued).
    assert!(report.handoffs_per_lookup > 0.0);
}

/// Equal-timestamp churn is applied in the canonical
/// [`ChurnEvent::sort_key`] order, so permuting the schedule's event
/// list never changes a run. The mixed joins-and-leaves-at-one-instant
/// shape below is exactly the case the tie-break exists for.
#[test]
fn permuting_equal_time_churn_does_not_change_the_report() {
    let run = |churn: &[ChurnEvent]| {
        let (mut net, mut rng) = build(192, 404, ProtocolSpec::ert_af());
        let lookups = uniform_lookups(300, 192.0, &mut rng);
        format!("{:?}", net.run(&lookups, churn))
    };
    let mid = {
        let (_, mut rng) = build(192, 404, ProtocolSpec::ert_af());
        uniform_lookups(300, 192.0, &mut rng)[150].at
    };
    let mut forward: Vec<ChurnEvent> = (0..20).map(|_| ChurnEvent::Leave { at: mid }).collect();
    forward.extend((0..20).map(|i| ChurnEvent::Join {
        at: mid,
        capacity: 900.0 + 50.0 * f64::from(i),
    }));
    let mut reversed = forward.clone();
    reversed.reverse();
    let mut rotated = forward.clone();
    rotated.rotate_left(13);
    let baseline = run(&forward);
    assert_eq!(baseline, run(&reversed));
    assert_eq!(baseline, run(&rotated));
}

/// The same order-invariance holds for a plan mixing both classes:
/// fault and adversary events piled onto one instant apply in the
/// canonical `sort_key` order (environment faults before adversary
/// kinds, each tie-broken by taxonomy rank and parameter bits), so
/// permuting the plan's event list never changes the run.
#[test]
fn permuting_mixed_fault_and_adversary_plans_is_order_invariant() {
    use ert_repro::faults::{FaultEvent, FaultKind, FaultPlan};
    use ert_repro::sim::SimDuration;

    let run = |fault_events: &[FaultEvent], adv_events: &[FaultEvent]| {
        let (mut net, mut rng) = build(192, 405, ProtocolSpec::ert_af());
        let lookups = uniform_lookups(300, 192.0, &mut rng);
        let mut plan = FaultPlan::new(9);
        plan.events = [fault_events, adv_events].concat();
        format!("{:?}", net.run_with_faults(&lookups, &[], &plan))
    };

    let mid = {
        let (_, mut rng) = build(192, 405, ProtocolSpec::ert_af());
        uniform_lookups(300, 192.0, &mut rng)[150].at
    };
    let faults = vec![
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
    ];
    let adversaries = vec![
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

    let baseline = run(&faults, &adversaries);
    let mut rf = faults.clone();
    rf.reverse();
    let mut ra = adversaries.clone();
    ra.reverse();
    assert_eq!(baseline, run(&rf, &adversaries), "fault permutation leaked");
    assert_eq!(baseline, run(&faults, &ra), "adversary permutation leaked");
    assert_eq!(baseline, run(&rf, &ra), "joint permutation leaked");
    let mut rot = adversaries.clone();
    rot.rotate_left(2);
    assert_eq!(baseline, run(&faults, &rot), "adversary rotation leaked");
}

#[test]
fn empty_blast_is_noop() {
    let (mut net, mut rng) = build(64, 403, ProtocolSpec::ert_af());
    let lookups = uniform_lookups(100, 64.0, &mut rng);
    let report = net.run(&lookups, &[]);
    assert_eq!(report.lookups_completed, 100);
    assert_eq!(report.handoffs_per_lookup, 0.0);
    assert_eq!(report.timeouts_per_lookup, 0.0);
}
