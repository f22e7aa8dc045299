//! The catalogue: every claim of EXPERIMENTS.md as a [`ShapeSpec`].
//!
//! Two calibration tiers coexist per figure, selected by `axis_gate`:
//!
//! * **quick** specs encode the shape of `figures --quick` output
//!   (n = 192, 100–300 lookups, sizes 64/128). Nothing under
//!   `results/` is quick-scale, so these judge fresh quick sweeps.
//! * **paper** specs encode the Table 2 scale claims (n = 2048,
//!   1000–5000 lookups) and judge the committed `results/*.csv`, which
//!   `figures` with no flag writes at `catalog::SEEDS` seeds. They
//!   include the documented deviations (`*.deviation`): where the
//!   measurement contradicts the paper, the spec asserts what is
//!   measured and the paper's claim moves to [`refuted`].
//!
//! Orderings genuinely differ between scales (NS's congestion penalty
//! and ERT/AF's processing-time win show at quick scale, not at Table 2
//! scale), which is why the tiers are separate calibrations rather than
//! one spec with giant slack.

use crate::shape::{Axis, Layout, ShapeCheck, ShapeSpec, Tier};
use Axis::{All, At, Last, Named};
use ShapeCheck::{
    Flat, Less, Max, Min, NonDecreasing, NonIncreasing, Ordering, RatioBand, Widening,
};

const QUICK_LOOKUPS: Option<(f64, f64)> = Some((0.0, 500.0));
const PAPER_LOOKUPS: Option<(f64, f64)> = Some((1000.0, f64::INFINITY));
const QUICK_SIZES: Option<(f64, f64)> = Some((0.0, 256.0));
const PAPER_SIZES: Option<(f64, f64)> = Some((1024.0, f64::INFINITY));
const QUICK_SERVICE: Option<(f64, f64)> = Some((0.0, 0.8));
const PAPER_SERVICE: Option<(f64, f64)> = Some((1.0, f64::INFINITY));

fn spec(
    id: &'static str,
    claim: &'static str,
    table: &'static str,
    layout: Layout,
    tier: Tier,
    axis_gate: Option<(f64, f64)>,
    checks: Vec<ShapeCheck>,
) -> ShapeSpec {
    ShapeSpec {
        id,
        claim,
        table,
        layout,
        tier,
        axis_gate,
        checks,
    }
}

/// Every spec, quick tier and paper tier together. Evaluation sites
/// filter by [`ShapeSpec::applies`] against the data they actually
/// have, so dormant tiers skip instead of failing.
pub fn catalogue() -> Vec<ShapeSpec> {
    let mut specs = Vec::new();
    fig4(&mut specs);
    fig5(&mut specs);
    fig7(&mut specs);
    theorems(&mut specs);
    adversarial(&mut specs);
    extensions(&mut specs);
    specs
}

/// The claims the Table 2-scale measurement contradicts. Each fails on
/// seeds `1..=SEEDS`, on the disjoint `101..=100 + SEEDS`, or on both;
/// a `*.deviation` spec in [`catalogue`] asserts what is measured
/// instead, and EXPERIMENTS.md marks the claim ⚠️. They stay here,
/// unloosened, so the mark flips back the day a claim holds again. A
/// tier-free one still holds at quick scale and judges fresh quick
/// sweeps there.
pub fn refuted() -> Vec<ShapeSpec> {
    vec![
        spec(
            "fig4a.paper.ns-worst",
            "at Table 2 load NS is worse than Base and the high-load ordering is ERT/AF < VS < Base < NS (paper Fig. 4a)",
            "fig_4a",
            Layout::Wide,
            Tier::Paper,
            PAPER_LOOKUPS,
            vec![
                Max { series: "NS", at: Last },
                Ordering { order: &["ERT/AF", "VS", "Base", "NS"], at: Last, slack: 0.0 },
                NonDecreasing { series: "Base", slack: 0.1 },
                NonDecreasing { series: "NS", slack: 0.1 },
            ],
        ),
        spec(
            "fig4svc.paper.ordering",
            "service-time axis at Table 2 scale: NS worst at every service time; at the 2.1 s end ERT/AF < ERT/A < ERT/F < Base < NS (the paper's 'similar results' claim for the alternate load axis)",
            "fig_4_(service-time_axis)",
            Layout::Wide,
            Tier::Paper,
            PAPER_SERVICE,
            vec![
                Max { series: "NS", at: All },
                Ordering {
                    order: &["ERT/AF", "ERT/A", "ERT/F", "Base", "NS"],
                    at: Last,
                    slack: 0.0,
                },
                Less { a: "VS", b: "Base", at: All, slack: 0.0 },
            ],
        ),
        spec(
            "fig5c.any.processing-time",
            "query processing time: NS worst on mean and p99 (no-shedding queues explode); ERT/AF beats Base and ties ERT/F for lowest mean within 5%",
            "fig_5c",
            Layout::Rows,
            Tier::Any,
            None,
            vec![
                Max { series: "NS", at: Named("mean") },
                Max { series: "NS", at: Named("p99") },
                Less { a: "ERT/AF", b: "Base", at: Named("mean"), slack: 0.0 },
                Less { a: "ERT/AF", b: "ERT/F", at: Named("mean"), slack: 0.05 },
                Less { a: "ERT/A", b: "VS", at: Named("p99"), slack: 0.0 },
            ],
        ),
        spec(
            "advflood.any.containment",
            "flash-crowd flood: ERT/AF contains the hotspot — its peak queue depth stays below Base's (two-choice forwarding spreads the crest that Base funnels into one host)",
            "adv_flood",
            Layout::Rows,
            Tier::Any,
            None,
            vec![
                Less { a: "ERT/AF", b: "Base", at: Named("peak"), slack: 0.0 },
                RatioBand { num: "ERT/AF", den: "Base", at: Named("peak"), lo: 0.0, hi: 0.95 },
            ],
        ),
        spec(
            "exthotspot.paper.adaptation-tracks",
            "drifting hot set: ERT/AF (adaptation on) ends with the lowest congestion, below ERT/F and Base; the periodic indegree adaptation tracks time-varying popularity",
            "ext_hotspot",
            Layout::Long { value: "p99 cong" },
            Tier::Paper,
            None,
            vec![Min { series: "ERT/AF", at: Named("drifting") }],
        ),
    ]
}

fn fig4(specs: &mut Vec<ShapeSpec>) {
    specs.push(spec(
        "fig4a.quick.shape",
        "p99 max congestion climbs with load; Base tops the quick scale while VS and the elastic protocols stay below it",
        "fig_4a",
        Layout::Wide,
        Tier::Quick,
        QUICK_LOOKUPS,
        vec![
            Max { series: "Base", at: Last },
            NonDecreasing { series: "Base", slack: 0.0 },
            NonDecreasing { series: "NS", slack: 0.0 },
            NonDecreasing { series: "VS", slack: 0.0 },
            NonDecreasing { series: "ERT/A", slack: 0.0 },
            NonDecreasing { series: "ERT/F", slack: 0.0 },
            NonDecreasing { series: "ERT/AF", slack: 0.0 },
            Less { a: "ERT/AF", b: "Base", at: Last, slack: 0.0 },
            Less { a: "VS", b: "Base", at: Last, slack: 0.0 },
        ],
    ));
    specs.push(spec(
        "fig4a.paper.deviation",
        "Fig. 4a at Table 2 load, the DOCUMENTED DEVIATION: Base, not NS, tops at 5000 lookups; ERT/AF stays lowest and the rest of the paper's high-load ordering, ERT/AF < VS < Base, holds",
        "fig_4a",
        Layout::Wide,
        Tier::Paper,
        PAPER_LOOKUPS,
        vec![
            Max { series: "Base", at: Last },
            Min { series: "ERT/AF", at: Last },
            Ordering { order: &["ERT/AF", "VS", "NS", "Base"], at: Last, slack: 0.0 },
            NonDecreasing { series: "Base", slack: 0.0 },
            NonDecreasing { series: "NS", slack: 0.0 },
        ],
    ));
    specs.push(spec(
        "fig4c.quick.share",
        "p99 share: NS worst and ERT/A best at the top of the quick sweep",
        "fig_4c",
        Layout::Wide,
        Tier::Quick,
        QUICK_LOOKUPS,
        vec![
            Max {
                series: "NS",
                at: Last,
            },
            Min {
                series: "ERT/A",
                at: Last,
            },
        ],
    ));
    specs.push(spec(
        "fig4c.paper.share",
        "p99 share at 5000 lookups: NS worst, ERT/A best (paper Fig. 4c)",
        "fig_4c",
        Layout::Wide,
        Tier::Paper,
        PAPER_LOOKUPS,
        vec![
            Max {
                series: "NS",
                at: Last,
            },
            Min {
                series: "ERT/A",
                at: Last,
            },
        ],
    ));
    specs.push(spec(
        "fig4svc.quick.shape",
        "service-time axis, quick scale: congestion grows with service time, Base tops, ERT/AF lowest at the high end and never above Base",
        "fig_4_(service-time_axis)",
        Layout::Wide,
        Tier::Quick,
        QUICK_SERVICE,
        vec![
            Max { series: "Base", at: Last },
            Min { series: "ERT/AF", at: Last },
            Less { a: "ERT/AF", b: "Base", at: All, slack: 0.0 },
            Less { a: "VS", b: "Base", at: All, slack: 0.0 },
            NonDecreasing { series: "Base", slack: 0.0 },
            NonDecreasing { series: "NS", slack: 0.0 },
            NonDecreasing { series: "VS", slack: 0.0 },
            NonDecreasing { series: "ERT/A", slack: 0.0 },
            NonDecreasing { series: "ERT/F", slack: 0.0 },
            NonDecreasing { series: "ERT/AF", slack: 0.0 },
        ],
    ));
    specs.push(spec(
        "fig4svc.paper.deviation",
        "service-time axis at Table 2 scale, the DOCUMENTED DEVIATION: once queues form (0.6 s on) Base, not NS, is worst; at the 2.1 s end ERT/AF < ERT/A < ERT/F < NS < Base, and VS stays below Base throughout",
        "fig_4_(service-time_axis)",
        Layout::Wide,
        Tier::Paper,
        PAPER_SERVICE,
        vec![
            Max { series: "Base", at: At(0.6) },
            Max { series: "Base", at: Last },
            Ordering {
                order: &["ERT/AF", "ERT/A", "ERT/F", "NS", "Base"],
                at: Last,
                slack: 0.0,
            },
            Less { a: "VS", b: "Base", at: All, slack: 0.0 },
        ],
    ));
}

fn fig5(specs: &mut Vec<ShapeSpec>) {
    specs.push(spec(
        "fig5a.quick.heavy",
        "heavy-node encounters: NS worst, elastic protocols near zero, counts only grow with load",
        "fig_5a",
        Layout::Wide,
        Tier::Quick,
        QUICK_LOOKUPS,
        vec![
            Max {
                series: "NS",
                at: Last,
            },
            NonDecreasing {
                series: "Base",
                slack: 0.0,
            },
            NonDecreasing {
                series: "NS",
                slack: 0.0,
            },
            NonDecreasing {
                series: "VS",
                slack: 0.0,
            },
            NonDecreasing {
                series: "ERT/AF",
                slack: 0.0,
            },
            Less {
                a: "ERT/AF",
                b: "VS",
                at: Last,
                slack: 0.0,
            },
            Less {
                a: "ERT/A",
                b: "Base",
                at: Last,
                slack: 0.0,
            },
            Less {
                a: "ERT/F",
                b: "Base",
                at: Last,
                slack: 0.0,
            },
        ],
    ));
    specs.push(spec(
        "fig5a.paper.ordering",
        "heavy-node encounters at 5000 lookups: elastic and VS all beat Base, NS worst (paper Fig. 5a)",
        "fig_5a",
        Layout::Wide,
        Tier::Paper,
        PAPER_LOOKUPS,
        vec![
            Max { series: "NS", at: Last },
            Less { a: "ERT/AF", b: "Base", at: Last, slack: 0.0 },
            Less { a: "ERT/F", b: "Base", at: Last, slack: 0.0 },
            Less { a: "ERT/A", b: "Base", at: Last, slack: 0.0 },
            Less { a: "VS", b: "Base", at: Last, slack: 0.0 },
        ],
    ));
    specs.push(spec(
        "fig5b.quick.paths",
        "path length grows with n; VS pays the longest paths (virtual servers multiply hops); ERT/AF stays within ~15% of Base",
        "fig_5b",
        Layout::Wide,
        Tier::Quick,
        QUICK_SIZES,
        vec![
            Max { series: "VS", at: All },
            NonDecreasing { series: "Base", slack: 0.0 },
            NonDecreasing { series: "NS", slack: 0.0 },
            NonDecreasing { series: "VS", slack: 0.0 },
            NonDecreasing { series: "ERT/A", slack: 0.0 },
            NonDecreasing { series: "ERT/F", slack: 0.0 },
            NonDecreasing { series: "ERT/AF", slack: 0.0 },
            RatioBand { num: "ERT/AF", den: "Base", at: Last, lo: 0.85, hi: 1.15 },
        ],
    ));
    specs.push(spec(
        "fig5b.paper.paths",
        "at Table 2 sizes VS pays the longest paths and ERT/AF stays within 15% of Base (paper Fig. 5b)",
        "fig_5b",
        Layout::Wide,
        Tier::Paper,
        PAPER_SIZES,
        vec![
            Max { series: "VS", at: Last },
            RatioBand { num: "ERT/AF", den: "Base", at: Last, lo: 0.85, hi: 1.15 },
            NonDecreasing { series: "Base", slack: 0.02 },
        ],
    ));
    specs.push(spec(
        "fig5c.paper.deviation",
        "query processing time at Table 2 scale, the DOCUMENTED DEVIATION: NS worst on mean and p99, but Base, not ERT/AF, has the lowest mean; ERT/AF still beats ERT/F, and ERT/A's p99 exceeds VS's",
        "fig_5c",
        Layout::Rows,
        Tier::Paper,
        None,
        vec![
            Max { series: "NS", at: Named("mean") },
            Max { series: "NS", at: Named("p99") },
            Min { series: "Base", at: Named("mean") },
            Less { a: "ERT/AF", b: "ERT/F", at: Named("mean"), slack: 0.0 },
            Less { a: "VS", b: "ERT/A", at: Named("p99"), slack: 0.0 },
        ],
    ));
}

fn fig7(specs: &mut Vec<ShapeSpec>) {
    // Indegree (7a), mean: Base/NS/VS never adapt so their tables are
    // static across the sweep; elastic indegree only grows as load
    // forces expansion.
    for (id, tier, gate) in [
        (
            "fig7a-mean.quick.static-vs-elastic",
            Tier::Quick,
            QUICK_LOOKUPS,
        ),
        (
            "fig7a-mean.paper.static-vs-elastic",
            Tier::Paper,
            PAPER_LOOKUPS,
        ),
    ] {
        specs.push(spec(
            id,
            "Fig. 7a mean indegree: static tables (Base/NS/VS) are flat across the load sweep with Base below VS; elastic indegree only grows; ERT/F stays below ERT/A (fixed tables accept fewer inlinks)",
            "fig_7a",
            Layout::Long { value: "mean" },
            tier,
            gate,
            vec![
                Flat { series: "Base", tol: 1e-6 },
                Flat { series: "NS", tol: 1e-6 },
                Flat { series: "VS", tol: 1e-6 },
                Less { a: "Base", b: "VS", at: Last, slack: 0.0 },
                NonDecreasing { series: "ERT/AF", slack: 0.0 },
                Less { a: "ERT/F", b: "ERT/A", at: Last, slack: 0.0 },
            ],
        ));
    }
    specs.push(spec(
        "fig7a-p99.quick.vs-tops",
        "Fig. 7a p99 indegree at quick scale: VS tops (virtual servers concentrate inlinks), Base static and below NS",
        "fig_7a",
        Layout::Long { value: "p99" },
        Tier::Quick,
        QUICK_LOOKUPS,
        vec![
            Max { series: "VS", at: Last },
            Flat { series: "Base", tol: 1e-6 },
            Less { a: "Base", b: "NS", at: Last, slack: 0.0 },
        ],
    ));
    specs.push(spec(
        "fig7a-p99.paper.deviation",
        "Fig. 7a p99 indegree at Table 2 scale: the DOCUMENTED DEVIATION — elastic ERT/A and ERT/AF exceed VS's p99 because adaptation concentrates inlinks on big-capacity nodes; Base stays static below NS",
        "fig_7a",
        Layout::Long { value: "p99" },
        Tier::Paper,
        PAPER_LOOKUPS,
        vec![
            Less { a: "VS", b: "ERT/A", at: Last, slack: 0.0 },
            Less { a: "VS", b: "ERT/AF", at: Last, slack: 0.0 },
            Flat { series: "Base", tol: 1e-6 },
            Flat { series: "VS", tol: 1e-6 },
            Less { a: "Base", b: "NS", at: Last, slack: 0.0 },
        ],
    ));
    for (id, tier, gate) in [
        ("fig7b-mean.quick.vs-largest", Tier::Quick, QUICK_LOOKUPS),
        ("fig7b-mean.paper.vs-largest", Tier::Paper, PAPER_LOOKUPS),
    ] {
        specs.push(spec(
            id,
            "Fig. 7b mean outdegree: VS largest at every load (each virtual server carries its own table), NS smallest, Base and VS static across the sweep (paper Fig. 7b)",
            "fig_7b",
            Layout::Long { value: "mean" },
            tier,
            gate,
            vec![
                Max { series: "VS", at: All },
                Min { series: "NS", at: All },
                Flat { series: "Base", tol: 1e-6 },
                Flat { series: "VS", tol: 1e-6 },
            ],
        ));
    }
    for (id, tier, gate) in [
        ("fig7b-p99.quick.vs-tops", Tier::Quick, QUICK_LOOKUPS),
        ("fig7b-p99.paper.vs-tops", Tier::Paper, PAPER_LOOKUPS),
    ] {
        specs.push(spec(
            id,
            "Fig. 7b p99 outdegree: VS tops by a wide margin (paper: virtual servers multiply per-host table size)",
            "fig_7b",
            Layout::Long { value: "p99" },
            tier,
            gate,
            vec![Max { series: "VS", at: Last }],
        ));
    }
}

fn theorems(specs: &mut Vec<ShapeSpec>) {
    for (id, table) in [
        ("thm31.gc100.all-within", "thm_3_1_gc1_00"),
        ("thm31.gc150.all-within", "thm_3_1_gc1_50"),
    ] {
        specs.push(spec(
            id,
            "Theorem 3.1: every assigned outdegree lies within [alpha_c/gamma_c - 1, alpha_c*gamma_c + 1] — within == n, below == above == 0",
            table,
            Layout::Wide,
            Tier::Any,
            None,
            vec![
                RatioBand { num: "within", den: "n", at: Axis::First, lo: 1.0 - 1e-9, hi: 1.0 + 1e-9 },
                RatioBand { num: "below", den: "n", at: Axis::First, lo: 0.0, hi: 1e-9 },
                RatioBand { num: "above", den: "n", at: Axis::First, lo: 0.0, hi: 1e-9 },
            ],
        ));
    }
    specs.push(spec(
        "thm32.convergence.envelope",
        "Theorem 3.2: adaptation converges onto the indegree bound; the paper's worked example (capacity 50, nu = 0.5) lands exactly on 100",
        "thm_3_2_convergence",
        Layout::Wide,
        Tier::Any,
        None,
        vec![
            RatioBand { num: "d final", den: "bound hi", at: At(50.0), lo: 0.99, hi: 1.01 },
            RatioBand { num: "d final", den: "bound hi", at: At(100.0), lo: 0.99, hi: 1.01 },
            RatioBand { num: "d final", den: "bound hi", at: At(30.0), lo: 0.99, hi: 1.01 },
        ],
    ));
    specs.push(spec(
        "thm41.model-vs-sim",
        "Theorem 4.1: the discrete simulation tracks the supermarket model (b=2 within 7% at every lambda; b=1 within tolerance until the horizon truncates the M/M/1 tail), and two choices win exponentially: the b1/b2 gap widens with lambda, reaching >=10x in the model and >=3x in simulation at lambda=0.99",
        "thm_4_1",
        Layout::Wide,
        Tier::Any,
        None,
        vec![
            RatioBand { num: "sim b=2", den: "model b=2", at: All, lo: 0.93, hi: 1.07 },
            RatioBand { num: "sim b=1", den: "model b=1", at: At(0.5), lo: 0.9, hi: 1.1 },
            RatioBand { num: "sim b=1", den: "model b=1", at: At(0.7), lo: 0.9, hi: 1.1 },
            RatioBand { num: "sim b=1", den: "model b=1", at: At(0.9), lo: 0.85, hi: 1.05 },
            RatioBand { num: "model b=1", den: "model b=2", at: At(0.99), lo: 10.0, hi: f64::INFINITY },
            RatioBand { num: "sim b=1", den: "sim b=2", at: At(0.99), lo: 3.0, hi: f64::INFINITY },
            NonDecreasing { series: "speedup b2/b1", slack: 0.0 },
            Less { a: "model b=3", b: "model b=2", at: All, slack: 0.0 },
            Widening { num: "model b=1", den: "model b=2", factor: 3.0 },
        ],
    ));
    specs.push(spec(
        "lemmaA1.fixed-point",
        "Lemma A.1: the closed-form fixed point matches the integrated ODE tail fractions and both decay monotonically",
        "lemma_a_1_b2",
        Layout::Wide,
        Tier::Any,
        None,
        vec![
            RatioBand { num: "ODE s_i(t→∞)", den: "fixed point s_i", at: At(1.0), lo: 0.999, hi: 1.001 },
            RatioBand { num: "ODE s_i(t→∞)", den: "fixed point s_i", at: At(2.0), lo: 0.999, hi: 1.001 },
            RatioBand { num: "ODE s_i(t→∞)", den: "fixed point s_i", at: At(3.0), lo: 0.999, hi: 1.001 },
            RatioBand { num: "ODE s_i(t→∞)", den: "fixed point s_i", at: At(4.0), lo: 0.999, hi: 1.001 },
            NonIncreasing { series: "fixed point s_i", slack: 0.0 },
            NonIncreasing { series: "ODE s_i(t→∞)", slack: 0.0 },
        ],
    ));
}

// Adversarial panels (`ert-experiments::adversarial`, EXPERIMENTS.md "Adversarial
// sweeps"). The liar/defector/sybil sweeps use different axis maxima
// per tier (quick errors top out at 4, paper at 8; fractions 0.2 vs
// 0.3; swarm sizes 16 vs 32), which is what the gates key on. The
// flood phase table is a row layout whose axis is stat position at
// both scales, so its claims must hold tier-free.
const QUICK_LIAR_ERRORS: Option<(f64, f64)> = Some((0.0, 5.0));
const PAPER_LIAR_ERRORS: Option<(f64, f64)> = Some((6.0, f64::INFINITY));
const QUICK_DEFECTORS: Option<(f64, f64)> = Some((0.0, 0.25));
const PAPER_DEFECTORS: Option<(f64, f64)> = Some((0.28, f64::INFINITY));
const QUICK_SYBILS: Option<(f64, f64)> = Some((0.0, 20.0));
const PAPER_SYBILS: Option<(f64, f64)> = Some((24.0, f64::INFINITY));

fn adversarial(specs: &mut Vec<ShapeSpec>) {
    specs.push(spec(
        "advliar.quick.immune-and-contained",
        "capacity liars at quick scale: Base never consults advertised capacity so its congestion is flat; ERT/AF stays below Base at every error; nothing is lost",
        "adv_liars",
        Layout::Wide,
        Tier::Quick,
        QUICK_LIAR_ERRORS,
        vec![
            Flat { series: "Base p99 congestion", tol: 0.02 },
            Flat { series: "ERT/AF p99 congestion", tol: 0.05 },
            Less { a: "ERT/AF p99 congestion", b: "Base p99 congestion", at: All, slack: 0.0 },
            Flat { series: "Base completed", tol: 1e-6 },
            Flat { series: "ERT/AF completed", tol: 1e-6 },
        ],
    ));
    specs.push(spec(
        "advliar.paper.widening-attack",
        "capacity liars at paper scale: the congestion-aware protocol is the attack surface — ERT/AF's p99 congestion climbs monotonically with the misreport error and its band against immune Base widens ≥15%, yet stays below Base and loses nothing (γ_c stress, Thms 3.1/3.2)",
        "adv_liars",
        Layout::Wide,
        Tier::Paper,
        PAPER_LIAR_ERRORS,
        vec![
            Flat { series: "Base p99 congestion", tol: 0.02 },
            NonDecreasing { series: "ERT/AF p99 congestion", slack: 0.02 },
            Widening { num: "ERT/AF p99 congestion", den: "Base p99 congestion", factor: 1.15 },
            Less { a: "ERT/AF p99 congestion", b: "Base p99 congestion", at: All, slack: 0.0 },
            Flat { series: "Base completed", tol: 1e-6 },
            Flat { series: "ERT/AF completed", tol: 1e-6 },
        ],
    ));
    specs.push(spec(
        "advdefect.quick.ert-pays",
        "routing defectors at quick scale: ERT/AF's p99 lookup time rises with the defector fraction (defection inverts exactly the rule it relies on) while Base barely moves; both keep completing everything and ERT/AF stays faster",
        "adv_defectors",
        Layout::Wide,
        Tier::Quick,
        QUICK_DEFECTORS,
        vec![
            NonDecreasing { series: "ERT/AF p99 lookup time", slack: 0.02 },
            Flat { series: "Base p99 lookup time", tol: 0.15 },
            Less { a: "ERT/AF p99 lookup time", b: "Base p99 lookup time", at: All, slack: 0.0 },
            Flat { series: "Base completed", tol: 1e-6 },
            Flat { series: "ERT/AF completed", tol: 1e-6 },
        ],
    ));
    specs.push(spec(
        "advdefect.paper.crossover",
        "routing defectors at paper scale: ERT/AF's latency penalty grows monotonically and ≥2× faster than Base's, crossing over — honest two-choice beats Base at fraction 0, but at 30% defectors ERT/AF is slower than Base; completion never drops",
        "adv_defectors",
        Layout::Wide,
        Tier::Paper,
        PAPER_DEFECTORS,
        vec![
            NonDecreasing { series: "ERT/AF p99 lookup time", slack: 0.02 },
            NonDecreasing { series: "Base p99 lookup time", slack: 0.05 },
            Widening { num: "ERT/AF p99 lookup time", den: "Base p99 lookup time", factor: 2.0 },
            Less { a: "ERT/AF p99 lookup time", b: "Base p99 lookup time", at: Axis::First, slack: 0.0 },
            Less { a: "Base p99 lookup time", b: "ERT/AF p99 lookup time", at: Last, slack: 0.0 },
            Flat { series: "Base completed", tol: 1e-6 },
            Flat { series: "ERT/AF completed", tol: 1e-6 },
        ],
    ));
    for (id, tier, gate, base_tol) in [
        (
            "advsybil.quick.concentration",
            Tier::Quick,
            QUICK_SYBILS,
            0.02,
        ),
        (
            "advsybil.paper.concentration",
            Tier::Paper,
            PAPER_SYBILS,
            0.1,
        ),
    ] {
        specs.push(spec(
            id,
            "Sybil swarms concentrate indegree on the elastic protocol: ERT/AF's max indegree grows with the swarm size while Base's static tables barely move; the swarm alone breaks no lookups",
            "adv_sybils",
            Layout::Wide,
            tier,
            gate,
            vec![
                NonDecreasing { series: "ERT/AF max indegree", slack: 0.02 },
                Flat { series: "Base max indegree", tol: base_tol },
                Less { a: "Base max indegree", b: "ERT/AF max indegree", at: All, slack: 0.0 },
                Flat { series: "Base completed", tol: 1e-6 },
                Flat { series: "ERT/AF completed", tol: 1e-6 },
            ],
        ));
    }
    specs.push(spec(
        "advflood.any.band",
        "flash-crowd flood: the hotspot spike blows far past the documented ×2 band for both protocols (it is a real attack), but by end of run both have drained back inside the band",
        "adv_flood",
        Layout::Rows,
        Tier::Any,
        None,
        vec![
            Less { a: "band (documented)", b: "Base", at: Named("spike"), slack: 0.0 },
            Less { a: "band (documented)", b: "ERT/AF", at: Named("spike"), slack: 0.0 },
            Less { a: "Base", b: "band (documented)", at: Named("recovery"), slack: 0.0 },
            Less { a: "ERT/AF", b: "band (documented)", at: Named("recovery"), slack: 0.0 },
        ],
    ));
    specs.push(spec(
        "advflood.any.deviation",
        "flash-crowd flood, the DOCUMENTED DEVIATION: ERT/AF's peak queue depth never exceeds Base's, but by how much is one seed's draw — the panel runs the first seed only, and the ratio ranges from well under 0.95 to near parity",
        "adv_flood",
        Layout::Rows,
        Tier::Any,
        None,
        vec![Less { a: "ERT/AF", b: "Base", at: Named("peak"), slack: 0.0 }],
    ));
}

// The `extensions` row (EXPERIMENTS.md "Extensions"). Its tables are
// keyed by protocol, platform or workload rather than by a load axis,
// so nothing gates them: they are paper-tier and judge the committed
// files only (fresh quick sweeps do not run this row).
fn extensions(specs: &mut Vec<ShapeSpec>) {
    specs.push(spec(
        "extzipf.paper.share",
        "Zipf popularity: Base's p99 share rises with the exponent",
        "ext_zipf",
        Layout::Long { value: "p99 share" },
        Tier::Paper,
        None,
        vec![NonDecreasing {
            series: "Base",
            slack: 0.0,
        }],
    ));
    specs.push(spec(
        "extzipf.paper.skew",
        "Zipf popularity: raising the exponent raises Base's p99 congestion, and ERT/A stays the lowest of Base and the ERT variants at every exponent",
        "ext_zipf",
        Layout::Long { value: "p99 cong" },
        Tier::Paper,
        None,
        vec![
            NonDecreasing { series: "Base", slack: 0.0 },
            Less { a: "ERT/A", b: "ERT/F", at: All, slack: 0.0 },
            Less { a: "ERT/A", b: "ERT/AF", at: All, slack: 0.0 },
            Less { a: "ERT/A", b: "Base", at: All, slack: 0.0 },
        ],
    ));
    specs.push(spec(
        "exthotspot.paper.deviation",
        "drifting hot set, the DOCUMENTED DEVIATION: both two-choice variants end well below Base, but ERT/AF's adaptation buys nothing over ERT/F: the two end within 5% of each other",
        "ext_hotspot",
        Layout::Long { value: "p99 cong" },
        Tier::Paper,
        None,
        vec![
            Max { series: "Base", at: Named("drifting") },
            RatioBand { num: "ERT/AF", den: "ERT/F", at: Named("drifting"), lo: 0.95, hi: 1.05 },
        ],
    ));
    specs.push(spec(
        "extanon.paper.absorbs",
        "anonymity mode: retracing responses raises Base's p99 congestion; ERT/AF stays below Base in both modes and absorbs the extra relay load (the Base/ERT/AF gap widens)",
        "ext_anonymity",
        Layout::Long { value: "p99 cong" },
        Tier::Paper,
        None,
        vec![
            NonDecreasing { series: "Base", slack: 0.0 },
            Less { a: "ERT/AF", b: "Base", at: All, slack: 0.0 },
            Widening { num: "Base", den: "ERT/AF", factor: 1.0 },
        ],
    ));
    specs.push(spec(
        "extutil.paper.capacity-aware",
        "utilization: busy time tracks capacity least under Base and most under VS, and ERT/AF's p99 utilization stays below Base's",
        "ext_utilization",
        Layout::Rows,
        Tier::Paper,
        None,
        vec![
            Min { series: "Base", at: Named("corr(cap; util)") },
            Max { series: "VS", at: Named("corr(cap; util)") },
            Less { a: "ERT/AF", b: "Base", at: Named("util p99"), slack: 0.0 },
        ],
    ));
    for (id, claim, value, check) in [
        (
            "extim.paper.congestion",
            "item movement under the impulse: IM improves on Base's p99 congestion but stays above ERT/AF",
            "p99 cong",
            Ordering { order: &["ERT/AF", "IM", "Base"], at: Named("impulse"), slack: 0.0 },
        ),
        (
            "extim.paper.share",
            "item movement under the impulse: ERT/AF's p99 share stays below IM's",
            "p99 share",
            Less { a: "ERT/AF", b: "IM", at: Named("impulse"), slack: 0.0 },
        ),
        (
            "extim.paper.id-churn",
            "item movement pays an ID-churn cost: IM's maintenance per lookup exceeds Base's on both workloads",
            "maint/lookup",
            Less { a: "Base", b: "IM", at: All, slack: 0.0 },
        ),
    ] {
        specs.push(spec(
            id,
            claim,
            "ext_item-movement",
            Layout::Long { value },
            Tier::Paper,
            None,
            vec![check],
        ));
    }
    specs.push(spec(
        "extstab.paper.zero-timeouts",
        "stabilization buys Base fewer stale-link timeouts for more repair traffic, but only ERT/AF reaches zero timeouts",
        "ext_stabilization",
        Layout::Rows,
        Tier::Paper,
        None,
        vec![
            Less { a: "Base stabilized", b: "Base lazy", at: Named("timeouts/lookup"), slack: 0.0 },
            Less { a: "Base lazy", b: "Base stabilized", at: Named("maint/lookup"), slack: 0.0 },
            Min { series: "ERT/AF lazy", at: Named("timeouts/lookup") },
            RatioBand { num: "ERT/AF lazy", den: "Base lazy", at: Named("timeouts/lookup"), lo: 0.0, hi: 0.0 },
        ],
    ));
    specs.push(spec(
        "extchord.paper.beyond-cycloid",
        "ERT beyond Cycloid: ERT lowers p99 congestion on Chord and on Pastry and removes Chord's heavy encounters, and both ERT overlays route in fewer hops than Cycloid ERT/AF",
        "ext_chord",
        Layout::Rows,
        Tier::Paper,
        None,
        vec![
            Less { a: "Chord+ERT", b: "Chord", at: Named("p99 cong"), slack: 0.0 },
            Less { a: "Pastry+ERT", b: "Pastry", at: Named("p99 cong"), slack: 0.0 },
            Less { a: "Chord+ERT", b: "Chord", at: Named("heavy"), slack: 0.0 },
            Less { a: "Chord+ERT", b: "Cycloid ERT/AF", at: Named("path"), slack: 0.0 },
            Less { a: "Pastry+ERT", b: "Cycloid ERT/AF", at: Named("path"), slack: 0.0 },
        ],
    ));
}

/// A deliberately inverted claim — "NS handles load *better* than
/// Base" — used by the conformance suite to prove the machinery
/// actually rejects wrong shapes instead of vacuously passing. The
/// quick twin judges a fresh quick sweep, the paper twin the committed
/// files.
pub fn inverted_example(tier: Tier) -> ShapeSpec {
    spec(
        "inverted.ns-better-than-base",
        "INVERTED ON PURPOSE: NS beats Base on heavy-node encounters and is the sweep minimum",
        "fig_5a",
        Layout::Wide,
        tier,
        if tier == Tier::Quick {
            QUICK_LOOKUPS
        } else {
            PAPER_LOOKUPS
        },
        vec![
            Less {
                a: "NS",
                b: "Base",
                at: Last,
                slack: 0.0,
            },
            Min {
                series: "NS",
                at: Last,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_ids_are_unique_and_nonempty() {
        let specs: Vec<ShapeSpec> = catalogue().into_iter().chain(refuted()).collect();
        assert!(
            catalogue().len() >= 20,
            "catalogue shrank to {}",
            catalogue().len()
        );
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate spec ids");
        for s in &specs {
            assert!(!s.checks.is_empty(), "{} has no checks", s.id);
            assert!(!s.table.is_empty());
        }
    }

    #[test]
    fn tiers_of_one_figure_have_disjoint_gates() {
        let specs = catalogue();
        for a in &specs {
            for b in &specs {
                if a.id >= b.id || a.table != b.table || a.layout != b.layout {
                    continue;
                }
                if let (Some((alo, ahi)), Some((blo, bhi))) = (a.axis_gate, b.axis_gate) {
                    let overlap = alo.max(blo) <= ahi.min(bhi);
                    assert!(
                        !overlap,
                        "{} and {} have overlapping gates on {}",
                        a.id, b.id, a.table
                    );
                }
            }
        }
    }
}
