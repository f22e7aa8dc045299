//! The cross-layer conformance suite: golden-master shape regression
//! against committed results and against the catalog's own rows run
//! fresh at quick scale, and the differential oracles. CI runs this as the `conformance` step
//! (release mode — the fresh sweeps are real simulations).

use ert_experiments::catalog::{Ctx, SEEDS};
use ert_testkit::diff::{self};
use ert_testkit::envelopes;
use ert_testkit::golden::{self, GoldenReport};
use ert_testkit::shape::{ShapeSpec, Tier};
use ert_testkit::specs;

/// The specs a fresh quick sweep answers to: every catalogue spec and
/// every refuted claim but the paper tier. A tier-free refuted claim
/// (Fig. 5c's processing-time order) fails only at Table 2 scale.
fn quick_scale_specs() -> Vec<ShapeSpec> {
    specs::catalogue()
        .into_iter()
        .chain(specs::refuted())
        .filter(|s| s.tier != Tier::Paper)
        .collect()
}

/// Every committed `results/*.csv` a spec names must parse, pass the
/// tier gate it was calibrated for, and satisfy its checks. The
/// committed files are all paper-scale (`figures` with no flag), so the
/// paper-tier and tier-free specs evaluate here and the quick tier
/// skips.
#[test]
fn committed_results_satisfy_catalogue() {
    let report = golden::check_committed(&specs::catalogue(), &golden::results_dir());
    assert!(
        report.missing.is_empty(),
        "catalogue names uncommitted tables: {:?}",
        report.missing
    );
    assert!(
        report.violations.is_empty(),
        "committed results violate the catalogue:\n{}",
        report.summary()
    );
    assert!(
        report.evaluated.len() >= 20,
        "suspiciously few specs evaluated ({}) — did the tier gates rot?\n{}",
        report.evaluated.len(),
        report.summary()
    );
}

/// Every refuted claim still finds its committed table and passes its
/// tier gate there, so none can rot into a silent skip. Whether each
/// still fails is `claims_hold_on_disjoint_seed_sets`'s question: the
/// flood panel's claim fails only on the disjoint seeds.
#[test]
fn refuted_claims_still_evaluate_on_committed_results() {
    let refuted = specs::refuted();
    let report = golden::check_committed(&refuted, &golden::results_dir());
    assert_eq!(
        report.evaluated.len(),
        refuted.len(),
        "{}",
        report.summary()
    );
}

/// The catalog rows `fig4`, `fig4-service`, `fig5` and `fig7`, run
/// fresh as `figures --quick` runs them, must satisfy every quick-tier
/// and tier-free spec: the shape claims hold on regenerated data at the
/// scale they were calibrated for.
#[test]
fn fresh_quick_run_satisfies_catalogue() {
    let tables = golden::quick_tables();
    let report = golden::check_tables(&quick_scale_specs(), &tables);
    assert!(
        report.violations.is_empty(),
        "fresh quick sweep violates the catalogue:\n{}",
        report.summary()
    );
    assert!(
        report.evaluated.len() >= 10,
        "suspiciously few specs evaluated ({}) on the fresh sweep\n{}",
        report.evaluated.len(),
        report.summary()
    );
}

/// The catalog row `adversarial`, run fresh as `figures adversarial
/// --quick` runs it, must satisfy every quick-tier `adv_*` spec: the attack
/// shapes — liar immunity/containment, the defector latency penalty,
/// Sybil indegree concentration, flood spike-and-drain — hold on
/// regenerated data, not just on the committed full-scale snapshot.
#[test]
fn fresh_quick_adversarial_run_satisfies_catalogue() {
    let adv: Vec<_> = quick_scale_specs()
        .into_iter()
        .filter(|s| s.table.starts_with("adv_"))
        .collect();
    assert!(
        adv.len() >= 4,
        "adversarial catalogue shrank: {}",
        adv.len()
    );
    let report = golden::check_tables(&adv, &golden::adversarial_quick_tables());
    assert!(
        report.violations.is_empty(),
        "fresh quick adversarial sweep violates the catalogue:\n{}",
        report.summary()
    );
    assert!(
        report.missing.is_empty(),
        "adversarial specs name tables the sweep does not emit: {:?}",
        report.missing
    );
    assert!(
        report.evaluated.len() >= 4,
        "suspiciously few adversarial specs evaluated ({})\n{}",
        report.evaluated.len(),
        report.summary()
    );
}

/// The machinery must be falsifiable: a deliberately inverted claim
/// ("NS beats Base") fails against both the committed results (its
/// paper twin) and a fresh quick run (its quick twin).
#[test]
fn inverted_spec_demonstrably_fails() {
    let paper = [specs::inverted_example(Tier::Paper)];
    let committed = golden::check_committed(&paper, &golden::results_dir());
    assert_eq!(committed.evaluated.len(), 1);
    assert!(
        !committed.violations.is_empty(),
        "inverted spec passed against committed results — the oracle is vacuous"
    );

    let quick = [specs::inverted_example(Tier::Quick)];
    let fresh = golden::check_tables(&quick, &golden::quick_tables());
    assert_eq!(fresh.evaluated.len(), 1);
    assert!(
        !fresh.violations.is_empty(),
        "inverted spec passed against a fresh run — the oracle is vacuous"
    );
}

/// Theorem-table goldens and figure goldens share one [`GoldenReport`]
/// path; spot-check the bookkeeping split.
#[test]
fn golden_report_accounts_for_every_spec() {
    let catalogue = specs::catalogue();
    let report: GoldenReport = golden::check_committed(&catalogue, &golden::results_dir());
    assert_eq!(
        report.evaluated.len() + report.skipped.len() + report.missing.len(),
        catalogue.len(),
        "specs leaked from the report:\n{}",
        report.summary()
    );
}

/// Supermarket closed form vs discrete simulation on matched
/// parameters, b ∈ {1, 2, 4}, three seeds each. Tolerances: the
/// simulation is finite (n = 300) and horizon-bounded (1500 service
/// times), which biases it low by a few percent — most at b = 1 where
/// the M/M/1 tail relaxes slowest, least at b = 4 where queues barely
/// form.
#[test]
fn ode_vs_simulation_differential() {
    let seeds = [11, 12, 13];
    let cases = [(0.7, 1, 0.05), (0.9, 2, 0.07), (0.9, 4, 0.07)];
    for (lambda, b, tol) in cases {
        let d = diff::model_vs_sim(lambda, b, 300, 1500.0, &seeds, tol);
        assert!(d.ok(), "{d}");
    }
}

/// Lemma A.1's fixed point against the integrated ODE, and the two
/// integrators against each other, at every b the paper plots.
#[test]
fn fixed_point_and_stepper_differentials() {
    for b in [1u32, 2, 3, 4] {
        let lambda = if b == 1 { 0.7 } else { 0.9 };
        let horizon = if b == 1 { 400.0 } else { 150.0 };
        let fp = diff::fixed_point_vs_ode(lambda, b, horizon, 5e-3);
        assert!(fp.ok(), "{fp}");
        let steppers = diff::euler_vs_rk4(lambda, b, 60.0, 1e-3, 1e-3);
        assert!(steppers.ok(), "{steppers}");
    }
}

/// The full network's forwarding path against the supermarket model:
/// two-choice forwarding must improve on random-walk forwarding, and
/// must not exceed the idealized model's predicted gap (topology
/// constraints can only dilute the advantage). Coarse band by design —
/// the network is not a clean supermarket system.
#[test]
fn network_forwarding_vs_model_differential() {
    let mut scenario = ert_experiments::Scenario::quick(7);
    scenario.n = 96;
    scenario.lookups = 200;
    let d = diff::forwarding_vs_model(&scenario, 7, 0.9);
    assert!(
        d.consistent(0.1, 2.0),
        "forwarding differential out of band: measured {:.3}x vs model {:.3}x (rw {:.3}, 2c {:.3})",
        d.measured_ratio,
        d.model_ratio,
        d.random_walk_mean,
        d.two_choice_mean
    );
}

/// MiniDht's Chord platform vs pure ChordRegistry greedy routing on
/// identical member sets, three seeds: owners agree exactly, nothing
/// drops at benign load, and mean path lengths sit within 15%.
#[test]
fn minidht_vs_registry_chord_differential() {
    for seed in [1u64, 2, 3] {
        let d = diff::minidht_vs_registry(10, 128, 300, 200, seed);
        assert_eq!(
            d.owner_mismatches, 0,
            "seed {seed}: {} of {} owners disagreed",
            d.owner_mismatches, d.keys_checked
        );
        assert_eq!(d.dropped, 0, "seed {seed}: platform dropped lookups");
        assert!(
            d.path_rel_err() <= 0.15,
            "seed {seed}: platform mean path {:.3} vs classic reference {:.3} (rel err {:.3})",
            d.platform_mean_path,
            d.registry_mean_path,
            d.path_rel_err()
        );
        assert!(
            d.greedy_mean_path <= d.registry_mean_path + 1e-9,
            "seed {seed}: optimal-finger greedy ({:.3}) must not exceed classic ({:.3})",
            d.greedy_mean_path,
            d.registry_mean_path
        );
    }
}

/// Multi-seed theorem envelopes (satellite a rides through the same
/// wrappers from `tests/theorem_bounds.rs`; this exercises them at the
/// testkit level).
#[test]
fn theorem_envelopes_hold_across_seeds() {
    let t31 = envelopes::theorem31_envelope(128, &[1.0, 1.5], &[51, 52, 53]);
    assert!(t31.all_ok(), "{}", t31.summary());

    let t33 = envelopes::theorem33_envelope(128, 250, &[51, 52, 53]);
    assert!(t33.all_ok(), "{}", t33.summary());

    let t41 = envelopes::theorem41_envelope(250, 0.95, 2000.0, 3.0, &[305, 306, 307]);
    assert!(t41.all_ok(), "{}", t41.summary());
}

/// The seed count from evidence: a fresh paper-scale run of every
/// catalog row on seeds `1..=SEEDS` (the committed bytes) and one on
/// the disjoint `101..=100 + SEEDS` must each satisfy the whole
/// catalogue, and every refuted claim must fail on at least one of
/// them. A claim holds only if it holds on both. Two full runs take
/// minutes, so the test is ignored; run it with
/// `cargo test --release -p ert-testkit --test conformance -- --ignored`.
#[test]
#[ignore = "two paper-scale runs of every catalog row (minutes)"]
fn claims_hold_on_disjoint_seed_sets() {
    let k = SEEDS as u64;
    let refuted = specs::refuted();
    let mut failed = String::new();
    let mut still_refuted = vec![false; refuted.len()];
    for seeds in [(1..=k).collect::<Vec<u64>>(), (101..=100 + k).collect()] {
        let label = format!("seeds {}..={}", seeds[0], seeds[seeds.len() - 1]);
        let tables = Ctx::with_seeds(false, seeds).run_all();
        let report = golden::check_tables(&specs::catalogue(), &tables);
        eprintln!("{label}: {}", report.summary());
        if !report.violations.is_empty() || !report.missing.is_empty() {
            failed.push_str(&format!("{label}: {}", report.summary()));
        }
        for (spec, fails) in refuted.iter().zip(&mut still_refuted) {
            let report = golden::check_tables(std::slice::from_ref(spec), &tables);
            eprintln!("{label}: refuted {}: {}", spec.id, report.summary());
            *fails |= !report.violations.is_empty();
        }
    }
    for (spec, fails) in refuted.iter().zip(still_refuted) {
        if !fails {
            failed.push_str(&format!(
                "{} holds on both seed sets: move it back into the catalogue\n",
                spec.id
            ));
        }
    }
    assert!(failed.is_empty(), "{failed}");
}
