//! The byzantine acceptance gate (CI runs this sanitizer-armed:
//! `cargo test -q --release --features sanitize --test byzantine`).
//!
//! Under `--features sanitize` every run below executes with the
//! runtime invariant sanitizer compiled in, so these scenarios double
//! as envelope-relaxation tests: a capacity-liar run deliberately
//! violates the γ_c assumption behind the Theorem 3.1/3.2 degree
//! envelopes, and would abort here if `ert-network::sanitize` failed
//! to relax exactly those checks (and only those) for such plans.

use ert_repro::experiments::adversarial::attack;
use ert_repro::experiments::Scenario;
use ert_repro::network::{FaultEvent, FaultKind, FaultPlan, Network, NetworkConfig, ProtocolSpec};
use ert_repro::overlay::CycloidSpace;
use ert_repro::sim::{SimDuration, SimRng, SimTime};
use ert_repro::workloads::{uniform_lookups, BoundedPareto};

/// The pinned CI acceptance mix: 20% capacity liars at 4× misreport
/// plus 10% routing defectors.
fn acceptance_mix() -> Vec<FaultEvent> {
    attack(&[
        FaultKind::CapacityLiar {
            fraction: 0.2,
            error: 4.0,
        },
        FaultKind::RoutingDefector { fraction: 0.1 },
    ])
}

fn conserved(r: &ert_repro::network::RunReport) -> bool {
    r.lookups_started == r.lookups_completed + r.lookups_dropped + r.lookups_failed
}

/// The gate itself: under the pinned liar+defector mix, ERT/AF still
/// completes at least 85% of lookups (it completes far more — the
/// margin absorbs future calibration drift), nothing is double-counted,
/// and the honest Base control survives alongside.
#[test]
fn pinned_byzantine_mix_meets_the_acceptance_gate() {
    let mut s = Scenario::quick(17);
    s.adversary = acceptance_mix();
    for spec in [ProtocolSpec::ert_af(), ert_repro::baselines::base()] {
        let name = spec.name.clone();
        let r = s.run_once(&spec, 1);
        assert!(conserved(&r), "{name}: lookup conservation broken");
        assert_eq!(r.lookups_started, s.lookups as u64, "{name}");
        let completion = r.lookups_completed as f64 / r.lookups_started as f64;
        assert!(
            completion >= 0.85,
            "{name} completed only {:.1}% under the acceptance mix",
            100.0 * completion
        );
    }
}

/// An explicit empty plan is indistinguishable from a plain run, field
/// for field: the fault and adversary interpreters draw nothing and
/// schedule nothing unless a plan actually carries events.
#[test]
fn empty_adversary_plan_is_byte_identical_to_plain_run() {
    let n = 192;
    let build = || {
        let mut rng = SimRng::seed_from(613);
        let caps = BoundedPareto::paper_default().sample_n(n, &mut rng);
        let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), 613);
        let net = Network::new(cfg, &caps, ProtocolSpec::ert_af()).unwrap();
        let lookups = uniform_lookups(300, n as f64, &mut rng);
        (net, lookups)
    };
    let (mut plain, lookups) = build();
    let rp = plain.run(&lookups, &[]);
    let (mut explicit, lookups) = build();
    let re = explicit.run_with_faults(&lookups, &[], &FaultPlan::default());
    assert_eq!(format!("{rp:?}"), format!("{re:?}"));
}

/// Same-seed adversarial runs are reproducible across worker counts:
/// the sweep fan-out must not leak scheduling order into attacked
/// runs any more than into honest ones.
#[test]
fn adversarial_runs_reproduce_across_jobs_1_and_4() {
    let specs = [ProtocolSpec::ert_af(), ert_repro::baselines::base()];
    let run = |jobs: usize| {
        let mut s = Scenario::quick(17);
        s.adversary = acceptance_mix();
        s.jobs = Some(jobs);
        serde::json::to_string(&s.run_all(&specs))
    };
    assert_eq!(run(1), run(4), "worker count leaked into attacked runs");
}

/// A flood an order of magnitude larger than the base workload:
/// everything injected is accounted for and the run still completes
/// nearly everything after the crest drains.
#[test]
fn large_flood_is_conserved() {
    let mut s = Scenario::quick(17);
    s.adversary = vec![FaultEvent {
        at: SimTime::ZERO + SimDuration::from_secs_f64(0.4),
        kind: FaultKind::QueryFlood {
            key: 0.37,
            queries: 3000,
            window: SimDuration::from_secs_f64(0.5),
        },
    }];
    let r = s.run_once(&ProtocolSpec::ert_af(), 1);
    assert!(conserved(&r), "flood lookups leaked from the ledger");
    assert_eq!(r.lookups_started, s.lookups as u64 + 3000);
    let completion = r.lookups_completed as f64 / r.lookups_started as f64;
    assert!(
        completion >= 0.85,
        "flooded run completed only {:.1}%",
        100.0 * completion
    );
    // The flood actually bit: the run stretches well past the base
    // workload's horizon while the single-key hotspot drains.
    assert!(r.sim_seconds > 10.0, "flood did not extend the run");
}
