//! The experiment table behind `figures [<name>...]`, and the one rule
//! that decides a committed file's bytes.
//!
//! One row per experiment. `figures` with no name runs every row — the
//! all-in-one run is a loop over the same rows a per-figure run
//! selects, so the two cannot drift. Every paper-scale run averages
//! [`SEEDS`] seeds unless `--seeds` says otherwise, whatever the
//! selection, so `figures` with no flag rewrites `results/` byte for
//! byte.
//! [`Ctx`] carries the run-wide scale and the two sweeps several
//! figures share, computed at most once per process.

#![expect(
    clippy::disallowed_types,
    reason = "D10: `Ctx` is handed to every row as &Ctx and memoises the two sweeps several figures share, plus the bound-violated flag; harness state of one single-threaded `figures` process, outside any simulated world"
)]

use std::cell::{Cell, OnceCell};

use ert_baselines::all_protocols;
use ert_core::ErtParams;
use ert_network::{NetworkConfig, RetryPolicy};

use crate::adversarial::AdversaryScript;
use crate::cli::Args;
use crate::report::Table;
use crate::sweep::{Runs, Sweep};
use crate::{
    ablation, adversarial, bounds, chord, extensions, fig10, fig4, fig5, fig6, fig7, fig8, fig9,
    intro, resilience, thm41, ChurnSpec, Scenario, Workload,
};

/// Seeds `1..=SEEDS` every paper-scale run averages when `--seeds` is
/// not given (`--quick` runs one). Ten is where every claim the
/// catalogue judges reads the same on seeds 1–10 and on the disjoint
/// 101–110 (`ert-testkit`'s `claims_hold_on_disjoint_seed_sets`).
pub const SEEDS: usize = 10;

/// One experiment of the table.
pub struct Experiment {
    /// The name `figures <name>` selects it by.
    pub name: &'static str,
    /// Paper-scale adjustment of the Table 2 base scenario.
    pub(crate) scale: fn(&mut Scenario),
    /// Runs the experiment on its scaled base scenario.
    pub run: fn(&Ctx, &Scenario) -> Vec<Table>,
    /// Shapes the representative `--telemetry` run when this is the
    /// only row selected: edits the scenario, returns the config tweak.
    pub(crate) capture: fn(&Ctx, &mut Scenario) -> fn(&mut NetworkConfig),
}

/// Run-wide state shared by the rows of one `figures` process.
pub struct Ctx {
    /// `--quick`: laptop-CI scale instead of Table 2 scale.
    quick: bool,
    /// The unscaled base scenario (seeds, jobs, shards).
    pub base: Scenario,
    /// Set by a row whose theorem check failed; `figures` exits 1.
    pub bound_violated: Cell<bool>,
    lookup_sweep: OnceCell<Runs>,
    churn_sweep: OnceCell<Runs>,
}

impl Ctx {
    /// Builds the context of a parsed command line: seeds `1..=K` for
    /// `--seeds K`, else one seed under `--quick`, else [`SEEDS`].
    pub fn new(args: &Args) -> Ctx {
        let k = args.seeds.unwrap_or(if args.quick { 1 } else { SEEDS });
        let mut ctx = Ctx::with_seeds(args.quick, (1..=k as u64).collect());
        ctx.base.jobs = args.jobs;
        ctx.base.shards = args.shards;
        ctx
    }

    /// A context averaging exactly `seeds`, at quick or paper scale.
    pub fn with_seeds(quick: bool, seeds: Vec<u64>) -> Ctx {
        let base = if quick {
            Scenario::quick(1)
        } else {
            Scenario::paper_default(1)
        };
        Ctx {
            quick,
            base: Scenario { seeds, ..base },
            bound_violated: Cell::new(false),
            lookup_sweep: OnceCell::new(),
            churn_sweep: OnceCell::new(),
        }
    }

    /// Every row's tables, in table order.
    pub fn run_all(&self) -> Vec<Table> {
        EXPERIMENTS.iter().flat_map(|row| self.run(row)).collect()
    }

    /// One row's tables, on its scaled scenario.
    pub fn run(&self, row: &Experiment) -> Vec<Table> {
        (row.run)(self, &self.scenario(row))
    }

    /// The base scenario at `row`'s scale.
    pub fn scenario(&self, row: &Experiment) -> Scenario {
        let mut s = self.base.clone();
        if !self.quick {
            (row.scale)(&mut s);
        }
        s
    }

    /// The scenario and config tweak of the representative
    /// `--telemetry` run: the row's own shape when one row is selected,
    /// the plain base scenario otherwise.
    pub fn capture(&self, rows: &[&Experiment]) -> (Scenario, fn(&mut NetworkConfig)) {
        match rows {
            [only] => {
                let mut scenario = self.scenario(only);
                let tweak = (only.capture)(self, &mut scenario);
                (scenario, tweak)
            }
            _ => (self.base.clone(), no_tweak),
        }
    }

    fn pick<T>(&self, quick: T, paper: T) -> T {
        if self.quick {
            quick
        } else {
            paper
        }
    }

    /// The lookup-count sweep Figs. 4, 5a and 7 share, on the scenario
    /// of the row that asks first. Those rows all run at full scale on
    /// the run's seeds, so that is every asker's scenario.
    fn lookup_sweep(&self, base: &Scenario) -> &Runs {
        self.lookup_sweep.get_or_init(|| {
            let points = self.pick(vec![100, 200, 300], vec![1000, 2000, 3000, 4000, 5000]);
            fig4::lookup_sweep(points).run(base)
        })
    }

    /// The churn sweep Figs. 9 and 10 share, on the scenario of the row
    /// that asks first (both run at full scale).
    fn churn_sweep(&self, base: &Scenario) -> &Runs {
        self.churn_sweep
            .get_or_init(|| fig9::churn_sweep(self.interarrivals()).run(base))
    }

    /// Figs. 9 and 10's interarrival times, on the paper's time scale
    /// (lookups at one per second).
    fn interarrivals(&self) -> Vec<f64> {
        self.pick(vec![0.3, 0.9], vec![0.1, 0.3, 0.5, 0.7, 0.9])
    }

    /// The resilience row's chaos intensities.
    fn intensities(&self) -> Vec<f64> {
        self.pick(vec![0.0, 0.5, 1.0], vec![0.0, 0.25, 0.5, 0.75, 1.0])
    }

    /// The light service times of Fig. 4's alternate axis and Fig. 8.
    fn services(&self) -> Vec<f64> {
        self.pick(vec![0.1, 0.6], vec![0.1, 0.6, 1.1, 1.6, 2.1])
    }

    /// Fig. 8's impulse: `(source nodes, distinct keys)`.
    fn impulse(&self) -> (usize, usize) {
        self.pick((20, 5), (100, 50))
    }
}

/// Every experiment, in the order a multi-row run executes them:
/// name, paper scale, runner, capture shape.
pub(crate) static EXPERIMENTS: [Experiment; 15] = [
    row("fig4", full, fig4, plain),
    row("fig4-service", full, fig4_service, plain),
    row("fig5", full, fig5, plain),
    row("fig7", full, fig7, plain),
    row("intro", full, intro, plain),
    row("fig6", full, fig6, plain),
    row("fig8", full, fig8, capture_impulse),
    row("fig9", full, fig9, capture_churn),
    row("fig10", full, fig10, capture_churn),
    row("thm41", full, thm41, plain),
    row("bounds", full, bounds, plain),
    row("ablation", full, ablation, plain),
    row("extensions", full, extensions, plain),
    row("resilience", reduced, resilience, capture_chaos),
    row("adversarial", reduced, adversarial, capture_mix),
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

const fn row(
    name: &'static str,
    scale: fn(&mut Scenario),
    run: fn(&Ctx, &Scenario) -> Vec<Table>,
    capture: fn(&Ctx, &mut Scenario) -> fn(&mut NetworkConfig),
) -> Experiment {
    Experiment {
        name,
        scale,
        run,
        capture,
    }
}

/// Table 2 scale as it stands.
fn full(_: &mut Scenario) {}

/// Attacked and faulted runs queue and retry harder than honest ones;
/// one notch below full paper scale keeps those sweeps laptop-friendly.
fn reduced(s: &mut Scenario) {
    s.n = 1024;
    s.lookups = 2000;
}

fn no_tweak(_: &mut NetworkConfig) {}

/// The base scenario as the sweep ran it.
fn plain(_: &Ctx, _: &mut Scenario) -> fn(&mut NetworkConfig) {
    no_tweak
}

/// The impulse workload, so the stream shows the skew.
fn capture_impulse(ctx: &Ctx, s: &mut Scenario) -> fn(&mut NetworkConfig) {
    let (nodes, keys) = ctx.impulse();
    s.workload = Workload::Impulse { nodes, keys };
    no_tweak
}

/// The first churn level, so the stream shows join/depart/handoff
/// events too.
fn capture_churn(ctx: &Ctx, s: &mut Scenario) -> fn(&mut NetworkConfig) {
    let ia = ctx.interarrivals()[0];
    s.churn = Some(ChurnSpec {
        join_interarrival: ia,
        leave_interarrival: ia,
    });
    no_tweak
}

/// The first nonzero chaos intensity plus the sweep's retry policy, so
/// the stream shows fault, retry and failure events and reproduces the
/// sweep's ERT/AF data point.
fn capture_chaos(ctx: &Ctx, s: &mut Scenario) -> fn(&mut NetworkConfig) {
    s.chaos = ctx.intensities().into_iter().find(|&x| x > 0.0);
    |cfg| cfg.retry = RetryPolicy::standard()
}

/// The CI acceptance mix (liars + defectors together), so the stream
/// shows adversary activation, misreport and defection events.
fn capture_mix(_: &Ctx, s: &mut Scenario) -> fn(&mut NetworkConfig) {
    s.adversary = Some(AdversaryScript::Mix {
        liar_fraction: 0.2,
        liar_error: 4.0,
        defector_fraction: 0.1,
    });
    no_tweak
}

fn fig4(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    ctx.lookup_sweep(base).tables(&fig4::PANELS)
}

fn fig4_service(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    vec![fig4::service_sweep(ctx.services())
        .run(base)
        .table(&fig4::SERVICE_PANEL)]
}

fn fig5(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    let sizes = ctx.pick(vec![64, 128], vec![256, 512, 1024, 2048]);
    vec![
        ctx.lookup_sweep(base).table(&fig5::PANEL_5A),
        fig5::size_sweep(sizes).run(base).table(&fig5::PANEL_5B),
        Sweep::base(all_protocols).run(base).table(&fig5::PANEL_5C),
    ]
}

fn fig6(ctx: &Ctx, _: &Scenario) -> Vec<Table> {
    let dims: &[u8] = ctx.pick(&[4, 5, 6], &[6, 7, 8, 9, 10]);
    vec![
        fig6::summary_table(dims, true, 8),
        fig6::histogram_table(ctx.pick(5, 8), true, 8),
    ]
}

fn fig7(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    ctx.lookup_sweep(base).tables(&fig7::PANELS)
}

fn fig8(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    let mut impulse = base.clone();
    capture_impulse(ctx, &mut impulse);
    fig4::service_sweep(ctx.services())
        .run(&impulse)
        .tables(&fig8::PANELS)
}

fn fig9(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    ctx.churn_sweep(base).tables(&fig9::PANELS)
}

fn fig10(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    ctx.churn_sweep(base).tables(&fig10::PANELS)
}

fn intro(ctx: &Ctx, _: &Scenario) -> Vec<Table> {
    let sizes: &[usize] = ctx.pick(&[64, 256], &[128, 512, 2048, 8192]);
    vec![intro::imbalance_table(sizes, 3)]
}

fn thm41(ctx: &Ctx, _: &Scenario) -> Vec<Table> {
    let lambdas = ctx.pick(thm41::quick_lambdas(), thm41::paper_lambdas());
    let (n, horizon) = ctx.pick((200, 800.0), (500, 2000.0));
    vec![
        thm41::expected_time_table(&lambdas, n, horizon, 41),
        thm41::fixed_point_table(0.9, 2),
        thm41::fixed_point_table(0.9, 1),
    ]
}

fn bounds(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    let (n, lookups) = ctx.pick((128, 250), (2048, 3000));
    let cases = [
        (50.0, 0.5),
        (10.0, 1.0),
        (100.0, 0.25),
        (5.0, 2.0),
        (30.0, 0.1),
    ];
    let checks = [
        bounds::theorem31_check(n, 1.0, 51, base.shards),
        bounds::theorem31_check(n, 1.5, 52, base.shards),
        bounds::theorem32_convergence(&cases, &ErtParams::default()),
        (bounds::theorem32_check(n, lookups, 53, base.shards), true),
        bounds::theorem33_check(n, lookups, 54, base.shards),
    ];
    ctx.bound_violated.set(checks.iter().any(|(_, ok)| !ok));
    checks.into_iter().map(|(table, _)| table).collect()
}

fn ablation(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    // `α` at the dimension of the scenario's ID space.
    let alphas = vec![4.0, 8.0, ctx.pick(9.0, 11.0), 16.0, 24.0];
    vec![
        ablation::forwarding_sweep()
            .run(base)
            .table(&ablation::FORWARDING_PANEL),
        ablation::alpha_sweep(alphas)
            .run(base)
            .table(&ablation::ALPHA_PANEL),
        ablation::beta_sweep(vec![0.25, 0.5, 0.75, 1.0])
            .run(base)
            .table(&ablation::BETA_PANEL),
        ablation::probe_width_sweep(vec![1, 2, 3, 4])
            .run(base)
            .table(&ablation::PROBE_WIDTH_PANEL),
    ]
}

fn extensions(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    let (keys, epoch) = ctx.pick((20, 100), (100, 500));
    vec![
        extensions::zipf_table(base, &[0.0, 0.6, 1.0, 1.4], keys),
        extensions::shifting_hotspot_table(base, keys, 1.0, epoch),
        extensions::anonymity_table(base),
        extensions::utilization_table(base),
        extensions::item_movement_table(base),
        extensions::stabilization_table(base, 0.3),
        chord::cross_overlay_table(base),
    ]
}

fn resilience(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    let sweep = resilience::resilience_sweep(ctx.intensities());
    sweep.run(base).tables(&resilience::PANELS)
}

/// The liar, defector and Sybil sweeps (each with its honest control
/// first) and the flood phase table.
fn adversarial(ctx: &Ctx, base: &Scenario) -> Vec<Table> {
    let errors = ctx.pick(vec![1.0, 4.0], vec![1.0, 2.0, 4.0, 8.0]);
    let fractions = ctx.pick(vec![0.0, 0.2], vec![0.0, 0.1, 0.2, 0.3]);
    let counts = ctx.pick(vec![0, 16], vec![0, 8, 16, 32]);
    vec![
        adversarial::liar_sweep(errors)
            .run(base)
            .table(&adversarial::LIAR_PANEL),
        adversarial::defector_sweep(fractions)
            .run(base)
            .table(&adversarial::DEFECTOR_PANEL),
        adversarial::sybil_sweep(counts)
            .run(base)
            .table(&adversarial::SYBIL_PANEL),
        adversarial::flood_recovery(base),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
                "duplicate row {}",
                e.name
            );
            assert!(std::ptr::eq(find(e.name).unwrap(), e));
        }
        assert!(find("fig11").is_none());
    }

    #[test]
    fn usage_lists_every_row() {
        let usage = crate::cli::usage();
        for e in &EXPERIMENTS {
            assert!(
                usage.contains(&format!("  {}\n", e.name)),
                "usage omits {}",
                e.name
            );
        }
    }

    #[test]
    fn default_seeds_ignore_the_selection() {
        let ctx =
            |args: &[&str]| Ctx::new(&Args::parse(args.iter().map(|a| (*a).to_owned())).unwrap());
        let paper: Vec<u64> = (1..=SEEDS as u64).collect();
        assert_eq!(ctx(&["fig4", "--quick"]).base.seeds, [1]);
        assert_eq!(ctx(&["--quick"]).base.seeds, [1]);
        assert_eq!(ctx(&["fig4"]).base.seeds, paper);
        assert_eq!(ctx(&["fig4", "fig9"]).base.seeds, paper);
        assert_eq!(ctx(&[]).base.seeds, paper);
        assert_eq!(ctx(&["--seeds", "5"]).base.seeds, [1, 2, 3, 4, 5]);
        // Only the faulted and attacked sweeps run below Table 2 scale.
        let paper = ctx(&[]);
        assert_eq!(paper.scenario(find("fig4").unwrap()).n, 2048);
        assert_eq!(paper.scenario(find("resilience").unwrap()).n, 1024);
        let quick = ctx(&["--quick"]);
        assert_eq!(quick.scenario(find("adversarial").unwrap()).n, quick.base.n);
    }
}
