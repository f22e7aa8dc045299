//! Scenario descriptions and multi-seed execution.
//!
//! # Parallel execution
//!
//! Every run is an isolated deterministic world keyed only by its
//! `(seed, protocol, tweak)` triple, so multi-seed averages and
//! protocol sweeps fan out through the [`ert_par`] worker pool: jobs
//! execute on up to [`Scenario::jobs`] threads and results come back
//! in canonical submission order, making parallel output byte-identical
//! to sequential (`jobs = Some(1)`). A run that panics — e.g. a
//! poisoned tweak rejected by [`Network::new`] — surfaces as a
//! structured [`RunError`] naming the protocol and seed, while the
//! remaining runs drain cleanly.

use std::fmt;

use ert_network::{
    ChaosPlan, ChurnEvent, FaultEvent, FaultPlan, Lookup, Network, NetworkConfig, ProtocolSpec,
    RunReport,
};
use ert_overlay::CycloidSpace;
use ert_sim::stats::Summary;
use ert_sim::{SimRng, SimTime};
use ert_telemetry::Telemetry;
use ert_workloads::{
    churn_schedule, impulse_lookups, shifting_hotspot_lookups, uniform_lookups, zipf_lookups,
    BoundedPareto,
};

use crate::sweep::run_points;

/// The lookup stream a run injects, drawn from the run's `"lookups"`
/// RNG fork (see `ert_workloads` for each generator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Random sources and keys (Table 2 default).
    Uniform,
    /// The Section 5.4 impulse: sources from one contiguous interval,
    /// keys from a fixed small set.
    Impulse {
        /// Number of nodes in the source interval (paper: 100).
        nodes: usize,
        /// Number of distinct keys queried (paper: 50).
        keys: usize,
    },
    /// Random sources; keys drawn from a fixed Zipf-ranked set.
    Zipf {
        /// Number of distinct keys.
        keys: usize,
        /// Zipf exponent (0 is uniform over the keys).
        exponent: f64,
    },
    /// [`Workload::Zipf`] whose hot set drifts: every `epoch` lookups
    /// the rank-to-key mapping rotates by one.
    Hotspot {
        /// Number of distinct keys.
        keys: usize,
        /// Zipf exponent.
        exponent: f64,
        /// Lookups per popularity epoch.
        epoch: usize,
    },
}

/// Churn intensity (Section 5.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Mean seconds between joins.
    pub join_interarrival: f64,
    /// Mean seconds between departures.
    pub leave_interarrival: f64,
}

/// A complete experiment scenario: network size, workload, churn, and
/// the seeds to average over.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of physical hosts.
    pub n: usize,
    /// Number of lookups injected.
    pub lookups: usize,
    /// Lookup rate per node per second (paper: 1).
    pub per_node_rate: f64,
    /// Light-node service time in seconds (heavy is 5×).
    pub light_service_secs: f64,
    /// Seeds to run and average.
    pub seeds: Vec<u64>,
    /// Workload shape.
    pub workload: Workload,
    /// Churn, if any.
    pub churn: Option<ChurnSpec>,
    /// Injected-fault intensity in `[0, 1]`, if any: each run interprets
    /// a [`ChaosPlan`] generated from its seed over the
    /// lookup horizon (crashes, degraded hosts, message loss, partitions
    /// — see `ert-faults`). `None` runs fault-free and byte-identical to
    /// a build without fault support. Retries for lost forwards are
    /// configured separately via [`NetworkConfig::retry`] (e.g. in a
    /// `run_once_with` tweak).
    pub chaos: Option<f64>,
    /// The attack, as adversary [`FaultEvent`]s at fixed times
    /// (capacity liars, Sybil swarms, query floods, routing defectors;
    /// see `adversarial::attack`). Each run puts them in its
    /// [`FaultPlan`] under a seed folded from the run seed; empty runs
    /// adversary-free and byte-identical to a build without adversary
    /// support. With `chaos` also set, the events join the chaos plan
    /// and share its seed.
    pub adversary: Vec<FaultEvent>,
    /// Worker threads for the multi-run fan-out (`None` = all available
    /// cores, the `--jobs` default of `figures`). Any value yields
    /// byte-identical results: runs are seed-isolated worlds and the
    /// executor collects them in canonical submission order.
    pub jobs: Option<usize>,
    /// Shard count for the shared-nothing sharded event core
    /// (`--shards S`, see [`NetworkConfig::shards`]). Zero — the
    /// default — keeps the legacy single event loop. Any value yields
    /// byte-identical reports; the knob buys memory locality and
    /// per-shard parallel sweep/adaptation passes at scale.
    pub shards: usize,
}

/// A fanned-out run that failed, named after its coordinates in the
/// sweep so the operator can reproduce it with
/// [`Scenario::run_once_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Protocol of the failed run.
    pub protocol: String,
    /// Seed of the failed run.
    pub seed: u64,
    /// The panic payload (e.g. the `Network::new` rejection message).
    pub message: String,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run `{}` seed {} failed: {}",
            self.protocol, self.seed, self.message
        )
    }
}

impl std::error::Error for RunError {}

/// One cell of a fan-out batch: a scenario × protocol × seed triple
/// plus the per-cell configuration tweak.
pub struct RunCell<'a> {
    /// The scenario supplying workload, churn, and chaos schedules.
    pub scenario: &'a Scenario,
    /// The protocol under test.
    pub spec: &'a ProtocolSpec,
    /// The seed of this isolated world.
    pub seed: u64,
    /// Configuration override applied before [`Network::new`].
    pub tweak: Box<dyn Fn(&mut NetworkConfig) + Send + Sync + 'a>,
}

/// Executes a batch of independent run cells on up to `workers`
/// threads, returning per-cell outcomes **in submission order** —
/// byte-identical to a sequential loop over the cells. A cell whose run
/// panics yields a [`RunError`] naming its protocol and seed; the other
/// cells' reports come back intact.
pub fn try_run_batch(workers: usize, cells: Vec<RunCell<'_>>) -> Vec<Result<RunReport, RunError>> {
    let meta: Vec<(String, u64)> = cells
        .iter()
        .map(|c| (c.spec.name.clone(), c.seed))
        .collect();
    let jobs: Vec<(String, _)> = cells
        .into_iter()
        .map(|cell| {
            let label = format!("{} seed {}", cell.spec.name, cell.seed);
            (label, move || {
                let RunCell {
                    scenario,
                    spec,
                    seed,
                    tweak,
                } = cell;
                scenario.run_once_with(spec, seed, |cfg| tweak(cfg))
            })
        })
        .collect();
    ert_par::run_labeled(workers, jobs)
        .into_iter()
        .zip(meta)
        .map(|(outcome, (protocol, seed))| {
            outcome.map_err(|e| RunError {
                protocol,
                seed,
                message: e.message,
            })
        })
        .collect()
}

/// Unwraps a batch outcome, panicking with the structured error text —
/// the behavior the pre-parallel harness had for invalid scenarios.
pub(crate) fn expect_run(outcome: Result<RunReport, RunError>) -> RunReport {
    outcome.unwrap_or_else(|e| panic!("{e}"))
}

impl Scenario {
    /// Table 2 defaults: 2048 hosts, 3000 lookups at one per node-second,
    /// 0.2 s light service, uniform workload, no churn.
    pub fn paper_default(seeds: usize) -> Self {
        Scenario {
            n: 2048,
            lookups: 3000,
            per_node_rate: 1.0,
            light_service_secs: 0.2,
            seeds: (1..=seeds as u64).collect(),
            workload: Workload::Uniform,
            churn: None,
            chaos: None,
            adversary: Vec::new(),
            jobs: None,
            shards: 0,
        }
    }

    /// A reduced scenario for tests and benches.
    pub fn quick(seed: u64) -> Self {
        Scenario {
            n: 192,
            lookups: 300,
            per_node_rate: 1.0,
            light_service_secs: 0.2,
            seeds: vec![seed],
            workload: Workload::Uniform,
            churn: None,
            chaos: None,
            adversary: Vec::new(),
            jobs: None,
            shards: 0,
        }
    }

    /// The worker count the fan-out executor will use: the explicit
    /// [`Scenario::jobs`] when set, otherwise every available core.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(ert_par::default_jobs).max(1)
    }

    /// Runs one protocol once with a specific seed.
    ///
    /// # Panics
    ///
    /// Panics if the scenario or protocol configuration is rejected by
    /// [`Network::new`].
    pub fn run_once(&self, spec: &ProtocolSpec, seed: u64) -> RunReport {
        self.run_once_with(spec, seed, |_| {})
    }

    /// Like [`Scenario::run_once`], but lets the caller tweak the
    /// network configuration (used by ablations to override `α`, `β`,
    /// service times, ...).
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration is rejected by
    /// [`Network::new`].
    pub fn run_once_with(
        &self,
        spec: &ProtocolSpec,
        seed: u64,
        tweak: impl FnOnce(&mut NetworkConfig),
    ) -> RunReport {
        let (mut net, lookups, churn, plan) = self.build(spec, seed, tweak);
        net.run_with_faults(&lookups, &churn, &plan)
    }

    /// Like [`Scenario::run_once_with`], but with a telemetry pipeline
    /// installed for the run. After the run the report record (the
    /// [`RunReport`] plus the metric registry) is appended to the
    /// pipeline's sinks and everything is flushed; the pipeline comes
    /// back to the caller for reading snapshots or the trace ring.
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration is rejected by
    /// [`Network::new`].
    pub fn run_once_instrumented(
        &self,
        spec: &ProtocolSpec,
        seed: u64,
        tweak: impl FnOnce(&mut NetworkConfig),
        telemetry: Telemetry,
    ) -> (RunReport, Telemetry) {
        let (mut net, lookups, churn, plan) = self.build(spec, seed, tweak);
        net.set_telemetry(telemetry);
        let report = net.run_with_faults(&lookups, &churn, &plan);
        let mut telemetry = net.take_telemetry();
        telemetry.record_report(&report);
        telemetry.flush();
        (report, telemetry)
    }

    /// Builds the network and the workload/churn schedules for one run.
    fn build(
        &self,
        spec: &ProtocolSpec,
        seed: u64,
        tweak: impl FnOnce(&mut NetworkConfig),
    ) -> (Network, Vec<Lookup>, Vec<ChurnEvent>, FaultPlan) {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9e37_79b9));
        let capacities =
            BoundedPareto::paper_default().sample_n(self.n, &mut rng.fork("capacities"));
        let dim = CycloidSpace::dimension_for(self.n);
        let mut cfg = NetworkConfig::for_dimension(dim, seed)
            .with_light_service_secs(self.light_service_secs);
        cfg.shards = self.shards;
        tweak(&mut cfg);
        let rate = self.per_node_rate * self.n as f64;
        let mut wl_rng = rng.fork("lookups");
        let lookups: Vec<Lookup> = match self.workload {
            Workload::Uniform => uniform_lookups(self.lookups, rate, &mut wl_rng),
            Workload::Impulse { nodes, keys } => {
                impulse_lookups(self.lookups, rate, self.n, nodes, keys, &mut wl_rng)
            }
            Workload::Zipf { keys, exponent } => {
                zipf_lookups(self.lookups, rate, keys, exponent, &mut wl_rng)
            }
            Workload::Hotspot {
                keys,
                exponent,
                epoch,
            } => shifting_hotspot_lookups(self.lookups, rate, keys, exponent, epoch, &mut wl_rng),
        };
        let horizon = lookups.last().map_or(SimTime::ZERO, |l| l.at);
        let churn: Vec<ChurnEvent> = match self.churn {
            Some(c) => churn_schedule(
                horizon,
                c.join_interarrival,
                c.leave_interarrival,
                BoundedPareto::paper_default(),
                &mut rng.fork("churn"),
            ),
            None => Vec::new(),
        };
        // Each plan source folds the run seed with its own constant, so
        // every averaged seed sees a different (but reproducible)
        // schedule and fault and adversary schedules built from the same
        // run seed stay decorrelated. The chaos plan covers the injection
        // phase plus a tail for retries.
        let mut plan = FaultPlan {
            seed: seed.wrapping_mul(0x2545_f491_4f6c_dd1d),
            events: self.adversary.clone(),
        };
        if let Some(intensity) = self.chaos {
            let chaos = ChaosPlan::generate_over(
                seed.wrapping_mul(0xa076_1d64_78bd_642f),
                intensity,
                horizon,
            );
            plan.seed = chaos.seed;
            plan.events.extend(chaos.events);
        }
        let net = Network::new(cfg, &capacities, spec.clone()).expect("valid scenario");
        (net, lookups, churn, plan)
    }

    /// Runs one protocol across every seed (in parallel, canonical
    /// order) and averages the reports.
    pub fn run(&self, spec: &ProtocolSpec) -> RunReport {
        let mut reports = self.run_all(std::slice::from_ref(spec));
        reports.pop().expect("one report per protocol")
    }

    /// Runs several protocols as one flat `(protocol, seed)` batch on
    /// the worker pool, preserving protocol order.
    pub fn run_all(&self, specs: &[ProtocolSpec]) -> Vec<RunReport> {
        let mut reports = run_points(&[(self.clone(), specs.to_vec())], &|_, _| {});
        reports.pop().expect("one report set per point")
    }
}

fn mean(values: impl Iterator<Item = f64>, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        values.sum::<f64>() / n as f64
    }
}

fn mean_summary(reports: &[RunReport], pick: impl Fn(&RunReport) -> Summary) -> Summary {
    let n = reports.len();
    Summary {
        count: reports.iter().map(|r| pick(r).count).sum::<usize>() / n.max(1),
        mean: mean(reports.iter().map(|r| pick(r).mean), n),
        p01: mean(reports.iter().map(|r| pick(r).p01), n),
        p50: mean(reports.iter().map(|r| pick(r).p50), n),
        p99: mean(reports.iter().map(|r| pick(r).p99), n),
        max: mean(reports.iter().map(|r| pick(r).max), n),
    }
}

/// Field-wise mean of several runs of the same protocol (different
/// seeds).
///
/// # Panics
///
/// Panics when `reports` is empty.
pub fn average_reports(reports: &[RunReport]) -> RunReport {
    assert!(!reports.is_empty(), "no reports to average");
    let n = reports.len();
    RunReport {
        protocol: reports[0].protocol.clone(),
        lookups_started: reports.iter().map(|r| r.lookups_started).sum::<u64>() / n as u64,
        lookups_completed: reports.iter().map(|r| r.lookups_completed).sum::<u64>() / n as u64,
        lookups_dropped: reports.iter().map(|r| r.lookups_dropped).sum::<u64>() / n as u64,
        lookups_failed: reports.iter().map(|r| r.lookups_failed).sum::<u64>() / n as u64,
        p99_max_congestion: mean(reports.iter().map(|r| r.p99_max_congestion), n),
        p99_min_capacity_congestion: mean(reports.iter().map(|r| r.p99_min_capacity_congestion), n),
        p99_share: mean(reports.iter().map(|r| r.p99_share), n),
        heavy_encounters: reports.iter().map(|r| r.heavy_encounters).sum::<u64>() / n as u64,
        mean_path_length: mean(reports.iter().map(|r| r.mean_path_length), n),
        lookup_time: mean_summary(reports, |r| r.lookup_time),
        max_indegree: mean_summary(reports, |r| r.max_indegree),
        max_outdegree: mean_summary(reports, |r| r.max_outdegree),
        utilization: mean_summary(reports, |r| r.utilization),
        capacity_utilization_correlation: mean(
            reports.iter().map(|r| r.capacity_utilization_correlation),
            n,
        ),
        timeouts_per_lookup: mean(reports.iter().map(|r| r.timeouts_per_lookup), n),
        handoffs_per_lookup: mean(reports.iter().map(|r| r.handoffs_per_lookup), n),
        retries_per_lookup: mean(reports.iter().map(|r| r.retries_per_lookup), n),
        probes_per_decision: mean(reports.iter().map(|r| r.probes_per_decision), n),
        maintenance_per_lookup: mean(reports.iter().map(|r| r.maintenance_per_lookup), n),
        sim_seconds: mean(reports.iter().map(|r| r.sim_seconds), n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ert_baselines::base;

    #[test]
    fn quick_scenario_completes() {
        let s = Scenario::quick(3);
        let r = s.run(&base());
        assert_eq!(r.lookups_completed + r.lookups_dropped, 300);
        assert!(r.lookups_dropped <= 3);
    }

    #[test]
    fn averaging_is_fieldwise() {
        let s = Scenario::quick(1);
        let a = s.run_once(&base(), 1);
        let b = s.run_once(&base(), 2);
        let avg = average_reports(&[a.clone(), b.clone()]);
        assert!(
            (avg.mean_path_length - (a.mean_path_length + b.mean_path_length) / 2.0).abs() < 1e-12
        );
        assert_eq!(avg.protocol, "Base");
    }

    #[test]
    fn run_all_preserves_order() {
        let s = Scenario::quick(2);
        let specs = [base(), ert_network::ProtocolSpec::ert_af()];
        let out = s.run_all(&specs);
        assert_eq!(out[0].protocol, "Base");
        assert_eq!(out[1].protocol, "ERT/AF");
    }

    #[test]
    fn worker_count_does_not_change_the_average() {
        let mut s = Scenario::quick(1);
        s.n = 96;
        s.lookups = 120;
        s.seeds = vec![1, 2, 3];
        s.jobs = Some(1);
        let sequential = s.run(&base());
        s.jobs = Some(4);
        let parallel = s.run(&base());
        assert_eq!(
            serde::json::to_string(&sequential),
            serde::json::to_string(&parallel)
        );
    }

    #[test]
    fn impulse_scenario_runs() {
        let mut s = Scenario::quick(4);
        s.workload = Workload::Impulse { nodes: 20, keys: 5 };
        let r = s.run(&base());
        assert!(r.lookups_completed > 280);
    }

    #[test]
    fn churn_scenario_runs() {
        let mut s = Scenario::quick(5);
        s.churn = Some(ChurnSpec {
            join_interarrival: 0.5,
            leave_interarrival: 0.5,
        });
        let r = s.run(&ert_network::ProtocolSpec::ert_af());
        assert!(
            r.lookups_completed > 270,
            "completed {}",
            r.lookups_completed
        );
    }
}
