//! Runs worlds through the runtimes' public functions, checks their
//! outputs, and turns the timings into metrics.
//!
//! Two passes exist. The untraced pass ([`run_sweep`] +
//! [`end_to_end`]) times the whole sweep with spans and telemetry off
//! and yields the end-to-end metrics. The traced pass ([`trace_pass`])
//! repeats a few worlds with spans recorded and the runtime's own
//! tracing switched on, runs the layer probes of [`crate::kernels`] on
//! the same inputs, and yields the per-layer metrics and the trace
//! document. End-to-end metrics never come from the traced pass.

use std::collections::BTreeMap;

use ert_minidht::{ChordGeometry, MiniDht, MiniProtocol};
use ert_network::{FaultPlan, Network, RetryPolicy};
use ert_node::WireCluster;
use ert_telemetry::Telemetry;
use serde::Serialize;

use crate::calibrate::Calibrator;
use crate::kernels;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{Metric, RunResult};
use crate::spans::{now, Span, SpanTotals, Spans};
use crate::stats::{mean, median};
use crate::workload::{SimWorld, WireWorld, Workload, World};

/// Adaptation rounds the idle-tick probe sits through at n ≤ 2048;
/// scaled down in proportion above that (50 at n = 8192, where one
/// tick costs ~0.1 s) so the traced pass stays inside its time budget.
const IDLE_TICK_ROUNDS: u32 = 200;

/// What one world produced: functions of the seed alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Lookups injected.
    pub issued: u64,
    /// Lookups that reached their key's owner.
    pub completed: u64,
    /// First failed correctness check, if any.
    pub error: Option<String>,
    /// Median simulated lookup time, seconds.
    pub lookup_p50_s: f64,
    /// 99th percentile simulated lookup time, seconds.
    pub lookup_p99_s: f64,
    /// 99th percentile over hosts of each host's maximum congestion.
    pub p99_max_congestion: f64,
    /// Mean path length in hops.
    pub mean_hops: f64,
    /// Forwarding hops over all completed lookups.
    pub hops: u64,
    /// The runtime's report(s) in canonical text; equal text means a
    /// bit-identical run.
    pub serialized: String,
    /// Engine events processed (simulator only).
    pub events: u64,
    /// Adaptation rounds completed (simulator only).
    pub adapt_rounds: u64,
    /// Churn events scheduled (simulator only).
    pub churn_events: u64,
    /// Telemetry events emitted (simulator only, traced pass only).
    pub telemetry_events: u64,
    /// The report's useful-work ratios (simulator only): probes per
    /// decision, maintenance, timeouts and handoffs per lookup.
    pub ratios: [f64; 4],
    /// `ProbeLoad` RPCs issued (wire only).
    pub probe_rpcs: u64,
    /// `AdaptIndegree` RPCs issued (wire only).
    pub adapt_rpcs: u64,
    /// Hops in the cluster's own route trace (wire only, traced pass
    /// only).
    pub trace_hops: u64,
}

/// Host seconds of the calls one world made.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// `Network::new` or `WireCluster::new`.
    pub setup_s: f64,
    /// `Network::run` or `WireCluster::run_schedule`.
    pub run_s: f64,
    /// Serializing the report.
    pub digest_s: f64,
    /// `MiniDht::new` of the wire workload's twin.
    pub twin_setup_s: f64,
    /// `MiniDht::run_schedule` of the wire workload's twin.
    pub twin_run_s: f64,
}

impl Timing {
    /// Everything the world's calls took.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.run_s + self.digest_s + self.twin_setup_s + self.twin_run_s
    }

    /// These wall seconds as calibrated seconds, given the machine's
    /// slowdown while they were measured.
    pub fn calibrated(self, slowdown: f64) -> Timing {
        Timing {
            setup_s: self.setup_s / slowdown,
            run_s: self.run_s / slowdown,
            digest_s: self.digest_s / slowdown,
            twin_setup_s: self.twin_setup_s / slowdown,
            twin_run_s: self.twin_run_s / slowdown,
        }
    }
}

/// An untraced [`run_world`] with the reference kernel timed around
/// it: the outcome, the timing in calibrated seconds, and the slowdown
/// that was divided out.
fn run_calibrated(cal: &mut Calibrator, world: &World) -> (Outcome, Timing, f64) {
    let ((outcome, timing), slowdown) = cal.around(|| run_world(world, &mut Spans::off(), false));
    (outcome, timing.calibrated(slowdown), slowdown)
}

/// Builds the runtime for `world`, runs it and checks the accounting.
/// With `traced`, the runtime's own tracing is switched on as well.
pub fn run_world(world: &World, spans: &mut Spans, traced: bool) -> (Outcome, Timing) {
    match world {
        World::Sim(w) => run_sim(w, spans, traced),
        World::Wire(w) => run_wire(w, spans, traced),
    }
}

fn run_sim(w: &SimWorld, spans: &mut Spans, traced: bool) -> (Outcome, Timing) {
    spans.set_run(w.seed);
    let (mut net, setup_s) = spans.time("network.new", |_| {
        Network::new(w.cfg, &w.capacities, w.protocol.clone()).expect("valid benchmark scenario")
    });
    if traced {
        // Registry and a one-entry trace ring, no sink: the cheapest
        // configuration in which every emit site does its work.
        net.set_telemetry(Telemetry::with_trace_capacity(1));
    }
    let (report, run_s) = spans.time("network.run", |_| net.run(&w.lookups, &w.churn));
    let (serialized, digest_s) = spans.time("report.digest", |_| serde::json::to_string(&report));
    let issued = w.lookups.len() as u64;
    let accounted = report.lookups_completed + report.lookups_dropped + report.lookups_failed;
    let error = (report.lookups_started != issued || accounted != issued).then(|| {
        format!(
            "world {}: {issued} lookups issued but {} started, {} completed, {} dropped, {} failed",
            w.seed,
            report.lookups_started,
            report.lookups_completed,
            report.lookups_dropped,
            report.lookups_failed
        )
    });
    let outcome = Outcome {
        issued,
        completed: report.lookups_completed,
        error,
        lookup_p50_s: report.lookup_time.p50,
        lookup_p99_s: report.lookup_time.p99,
        p99_max_congestion: report.p99_max_congestion,
        mean_hops: report.mean_path_length,
        hops: (report.mean_path_length * report.lookups_completed as f64).round() as u64,
        serialized,
        events: net.events_processed(),
        adapt_rounds: net.adapt_rounds(),
        churn_events: w.churn.len() as u64,
        telemetry_events: net.telemetry().events_emitted(),
        ratios: [
            report.probes_per_decision,
            report.maintenance_per_lookup,
            report.timeouts_per_lookup,
            report.handoffs_per_lookup,
        ],
        ..Outcome::default()
    };
    let timing = Timing {
        setup_s,
        run_s,
        digest_s,
        ..Timing::default()
    };
    (outcome, timing)
}

fn run_wire(w: &WireWorld, spans: &mut Spans, traced: bool) -> (Outcome, Timing) {
    spans.set_run(w.seed);
    let protocol = MiniProtocol::ElasticErt;
    let geometry = ChordGeometry::from_members(w.bits, &w.members);
    let (mut sim, twin_setup_s) = spans.time("minidht.new", |_| {
        MiniDht::new(w.cfg, geometry, &w.capacities, protocol).expect("valid benchmark scenario")
    });
    // Live nodes own per-node decision streams; the twin must draw from
    // the same ones for the two sides to agree bit for bit.
    sim.use_node_decision_rngs();
    if traced {
        sim.enable_trace();
    }
    let (twin, twin_run_s) = spans.time("minidht.run_schedule", |_| sim.run_schedule(&w.schedule));

    let (mut cluster, setup_s) = spans.time("node.cluster_new", |_| {
        WireCluster::new(
            w.cfg,
            w.bits,
            &w.members,
            &w.capacities,
            protocol,
            &FaultPlan::new(w.seed),
            RetryPolicy::default(),
            None,
        )
        .expect("valid benchmark scenario")
    });
    if traced {
        cluster.enable_trace();
    }
    let (wire, run_s) = spans.time("node.run_schedule", |_| cluster.run_schedule(&w.schedule));
    let issued = w.schedule.len() as u64;
    let wire = match wire {
        Ok(report) => report,
        Err(e) => {
            let outcome = Outcome {
                issued,
                error: Some(format!("world {}: wire run failed: {e}", w.seed)),
                ..Outcome::default()
            };
            return (outcome, Timing::default());
        }
    };
    let (serialized, digest_s) = spans.time("report.digest", |_| {
        format!(
            "{}\n{}",
            wire.canonical_string(),
            serde::json::to_string(&twin)
        )
    });
    let error = if wire.completed + wire.dropped + wire.gave_up + wire.unresolved != issued {
        Some(format!(
            "world {}: {issued} lookups issued but the wire report accounts for {} + {} + {} + {}",
            w.seed, wire.completed, wire.dropped, wire.gave_up, wire.unresolved
        ))
    } else if twin.completed + twin.dropped != issued {
        Some(format!(
            "world {}: {issued} lookups issued but the MiniDht report accounts for {} + {}",
            w.seed, twin.completed, twin.dropped
        ))
    } else if (wire.completed, wire.dropped) != (twin.completed, twin.dropped)
        || wire.lookup_time.mean.to_bits() != twin.lookup_time.mean.to_bits()
    {
        Some(format!(
            "world {}: wire and MiniDht disagree: completed {} vs {}, dropped {} vs {}, mean lookup time {:?} vs {:?}",
            w.seed,
            wire.completed,
            twin.completed,
            wire.dropped,
            twin.dropped,
            wire.lookup_time.mean,
            twin.lookup_time.mean
        ))
    } else {
        None
    };
    let outcome = Outcome {
        issued,
        completed: wire.completed,
        error,
        lookup_p50_s: wire.lookup_time.p50,
        lookup_p99_s: wire.lookup_time.p99,
        p99_max_congestion: wire.p99_max_congestion,
        mean_hops: wire.mean_path_length,
        hops: (wire.mean_path_length * wire.completed as f64).round() as u64,
        serialized,
        probe_rpcs: wire.probe_rpcs,
        adapt_rpcs: wire.adapt_rpcs,
        trace_hops: cluster.take_trace().map_or(0, |t| t.hops.len() as u64),
        ..Outcome::default()
    };
    let timing = Timing {
        setup_s,
        run_s,
        digest_s,
        twin_setup_s,
        twin_run_s,
    };
    (outcome, timing)
}

/// The untraced pass over a workload's whole sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// One outcome per world, from the first timed cycle.
    pub outcomes: Vec<Outcome>,
    /// Every timing sample of each world, in calibrated seconds: one
    /// per cycle the time budget allowed.
    pub timings: Vec<Vec<Timing>>,
    /// The machine's slowdown against the reference box around each
    /// timed run (wall seconds = calibrated seconds × slowdown).
    pub slowdowns: Vec<f64>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

/// Generates the sweep from `seed`, runs one discarded warm-up world,
/// then times every world once and keeps cycling over the sweep until
/// `seconds` host seconds have passed. Every repeat of a world must
/// reproduce its first report text exactly.
pub fn run_sweep(workload: Workload, seed: u64, seconds: f64) -> Sweep {
    let worlds: Vec<World> = (0..workload.worlds)
        .map(|i| workload.generate(seed, i))
        .collect();
    let mut cal = Calibrator::new();
    let mut errors = Vec::new();
    let (warmup, _) = run_world(&worlds[0], &mut Spans::off(), false);

    let mut outcomes: Vec<Outcome> = Vec::with_capacity(worlds.len());
    let mut timings: Vec<Vec<Timing>> = vec![Vec::new(); worlds.len()];
    let mut slowdowns = Vec::new();
    let started = now();
    'cycles: for cycle in 0.. {
        for (i, world) in worlds.iter().enumerate() {
            if cycle > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'cycles;
            }
            let (outcome, timing, slowdown) = run_calibrated(&mut cal, world);
            timings[i].push(timing);
            slowdowns.push(slowdown);
            if cycle == 0 {
                errors.extend(outcome.error.clone());
                outcomes.push(outcome);
            } else if outcome.serialized != outcomes[i].serialized {
                errors.push(format!(
                    "world {i}: repeat {cycle} produced a different report"
                ));
            }
        }
    }
    if warmup.serialized != outcomes[0].serialized {
        errors.push("world 0: the warm-up and the timed run produced different reports".into());
    }
    Sweep {
        outcomes,
        timings,
        slowdowns,
        errors,
    }
}

/// FNV-1a over every world's report text.
fn fingerprint(outcomes: &[Outcome]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for outcome in outcomes {
        for byte in outcome.serialized.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Per-world median of one timing field.
fn world_medians(timings: &[Vec<Timing>], pick: impl Fn(&Timing) -> f64) -> Vec<f64> {
    timings
        .iter()
        .map(|samples| median(&samples.iter().map(&pick).collect::<Vec<f64>>()))
        .collect()
}

/// Digests an untraced sweep into the end-to-end metrics.
///
/// Host-time metrics take each world's median over its repeats first:
/// `setup_s` is the median world's construction time, `lookups_per_s`
/// is the sweep's completed lookups over its summed run time. The
/// simulated statistics are means over the sweep's worlds.
pub fn end_to_end(workload: Workload, seed: u64, sweep: &Sweep) -> RunResult {
    let mut errors = sweep.errors.clone();
    let attempted: u64 = sweep.outcomes.iter().map(|o| o.issued).sum();
    let completed: u64 = sweep.outcomes.iter().map(|o| o.completed).sum();
    let setups = world_medians(&sweep.timings, |t| t.setup_s);
    let runs = world_medians(&sweep.timings, |t| t.run_s);
    let rss = peak_rss_mb().unwrap_or_else(|| {
        errors.push("cannot read VmHWM from /proc/self/status".into());
        0.0
    });
    let over_worlds =
        |pick: fn(&Outcome) -> f64| mean(&sweep.outcomes.iter().map(pick).collect::<Vec<f64>>());
    let values = [
        median(&setups),
        completed as f64 / runs.iter().sum::<f64>(),
        rss,
        completed as f64 / attempted as f64,
        over_worlds(|o| o.lookup_p50_s),
        over_worlds(|o| o.lookup_p99_s),
        over_worlds(|o| o.p99_max_congestion),
        over_worlds(|o| o.mean_hops),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name.to_owned(),
            value,
            unit: m.unit.to_owned(),
        })
        .collect();
    let rates = sweep
        .outcomes
        .iter()
        .zip(&runs)
        .map(|(o, run_s)| o.completed as f64 / run_s)
        .collect();
    if completed != attempted {
        errors.push(format!(
            "{} of {attempted} lookups did not complete",
            attempted - completed
        ));
    }
    RunResult {
        workload: workload.name.to_owned(),
        seed,
        traced: false,
        correct: errors.is_empty(),
        attempted,
        failed: attempted - completed,
        metrics,
        samples: BTreeMap::from([
            ("setup_s".to_owned(), setups),
            ("lookups_per_s".to_owned(), rates),
            ("machine_slowdown".to_owned(), sweep.slowdowns.clone()),
        ]),
        fingerprint: fingerprint(&sweep.outcomes),
        errors,
    }
}

/// What the traced pass writes to `trace.json` beside its metrics.
#[derive(Debug, Clone, Serialize)]
pub struct TraceDoc {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Worker threads the box offers (`par.speedup_w2` depends on it).
    pub available_parallelism: usize,
    /// Every recorded span, in start order.
    pub spans: Vec<Span>,
    /// Total and self time per span name.
    pub span_totals: BTreeMap<&'static str, SpanTotals>,
    /// The per-layer metrics by name.
    pub layers: BTreeMap<&'static str, f64>,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The traced pass: per-layer metrics and the trace document.
///
/// Each of the workload's traced worlds runs twice, untraced then with
/// spans recorded and the runtime's tracing on; counts come from the
/// traced run, times from the untraced one. The layer probes then run
/// on the same inputs, each for `seconds / 40`, and the estimated
/// shares are what those probes predict of the measured run time. A
/// metric whose layer is not on the workload's path reads zero.
pub fn trace_pass(workload: Workload, seed: u64, seconds: f64) -> (RunResult, TraceDoc) {
    let probe_budget = seconds / 40.0;
    let mut spans = Spans::recording();
    let mut errors = Vec::new();
    let mut layer: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();

    let mut cal = Calibrator::new();
    let mut slowdowns = Vec::new();
    let mut worlds = Vec::new();
    let mut gen_s = Vec::new();
    for i in 0..workload.traced_worlds {
        spans.set_run(workload.world_seed(seed, i));
        let ((world, secs), slow) =
            cal.around(|| spans.time("workloads.generate", |_| workload.generate(seed, i)));
        worlds.push(world);
        gen_s.push(secs / slow);
    }
    layer.insert("workloads.gen_ms", median(&gen_s) * 1e3);

    let (warmup, _) = run_world(&worlds[0], &mut Spans::off(), false);
    let mut plain: Vec<Timing> = Vec::new();
    let mut traced: Vec<Timing> = Vec::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    for world in &worlds {
        let (reference, timing, slowdown) = run_calibrated(&mut cal, world);
        plain.push(timing);
        slowdowns.push(slowdown);
        // A root span per traced world, so the layer calls have a
        // parent and the harness's own overhead shows as its self time.
        let ((outcome, timing), slowdown) =
            cal.around(|| spans.time("world", |s| run_world(world, s, true)).0);
        let timing = timing.calibrated(slowdown);
        traced.push(timing);
        slowdowns.push(slowdown);
        errors.extend(outcome.error.clone());
        if outcome.serialized != reference.serialized {
            errors.push(format!(
                "world {}: tracing changed the report",
                outcomes.len()
            ));
        }
        outcomes.push(outcome);
    }
    if warmup.serialized != outcomes[0].serialized {
        errors.push("world 0: the warm-up and the timed run produced different reports".into());
    }

    let sum = |timings: &[Timing], pick: fn(&Timing) -> f64| timings.iter().map(pick).sum::<f64>();
    let med = |timings: &[Timing], pick: fn(&Timing) -> f64| {
        median(&timings.iter().map(pick).collect::<Vec<f64>>())
    };
    let count = |pick: fn(&Outcome) -> u64| outcomes.iter().map(pick).sum::<u64>() as f64;
    let run_s = sum(&plain, |t| t.run_s);
    let hops = count(|o| o.hops);
    let lookups = count(|o| o.completed);
    let depth = workload.lookups;

    // Probe times are calibrated like every other host time.
    let (queue_ns, slow) = cal.around(|| kernels::queue_ns_per_op(depth, probe_budget));
    let queue_ns = queue_ns / slow;
    layer.insert("sim.queue_ns_per_op", queue_ns);
    let (sharded_ns, slow) = cal.around(|| kernels::sharded8_ns_per_op(depth, probe_budget));
    layer.insert("sim.sharded8_ns_per_op", sharded_ns / slow);
    let (core, slow) = cal.around(|| kernels::core_ns(probe_budget * 4.0));
    let decision_ns = core.decision / slow;
    layer.insert("core.decision_ns", decision_ns);
    layer.insert("core.table_op_ns", core.table_op / slow);
    layer.insert("core.purge_ns", core.purge / slow);
    layer.insert("core.adapt_decision_ns", core.adapt_decision / slow);
    layer.insert(
        "core.decision_share_est",
        ratio(decision_ns * hops, run_s * 1e9),
    );
    layer.insert("report.digest_ms", med(&plain, |t| t.digest_s) * 1e3);
    layer.insert(
        "trace.overhead_frac",
        ratio(sum(&traced, Timing::total_s), sum(&plain, Timing::total_s)) - 1.0,
    );
    let mut attributed = layer["core.decision_share_est"];

    match &worlds[0] {
        World::Sim(first) => {
            let events = count(|o| o.events);
            let rounds = count(|o| o.adapt_rounds);
            layer.insert("network.events", events);
            layer.insert("network.hops", hops);
            layer.insert("network.adapt_rounds", rounds);
            layer.insert("network.churn_events", count(|o| o.churn_events));
            layer.insert("network.new_ms", med(&plain, |t| t.setup_s) * 1e3);
            layer.insert("network.us_per_event", ratio(run_s * 1e6, events));
            layer.insert("network.us_per_hop", ratio(run_s * 1e6, hops));
            for (slot, name) in [
                "network.probes_per_decision",
                "network.maintenance_per_lookup",
                "network.timeouts_per_lookup",
                "network.handoffs_per_lookup",
            ]
            .into_iter()
            .enumerate()
            {
                layer.insert(
                    name,
                    mean(
                        &outcomes
                            .iter()
                            .map(|o| o.ratios[slot])
                            .collect::<Vec<f64>>(),
                    ),
                );
            }
            layer.insert(
                "telemetry.enabled_overhead_frac",
                ratio(sum(&traced, |t| t.run_s), run_s) - 1.0,
            );
            layer.insert("telemetry.events_emitted", count(|o| o.telemetry_events));

            let (overlay, slow) =
                cal.around(|| kernels::overlay_ns(workload.n, probe_budget * 3.0));
            layer.insert("overlay.route_step_ns", overlay.route_step / slow);
            layer.insert("overlay.owner_ns", overlay.owner / slow);
            layer.insert("overlay.region_query_ns", overlay.region_query / slow);

            let queue_share = ratio(queue_ns * events, run_s * 1e9);
            layer.insert("sim.queue_share_est", queue_share);
            let idle_rounds = (IDLE_TICK_ROUNDS as usize * 2048 / workload.n.max(2048)) as u32;
            let ((tick_us, _), slow) = cal.around(|| {
                kernels::idle_tick_us(&first.cfg, &first.capacities, &first.protocol, idle_rounds)
            });
            slowdowns.push(slow);
            let tick_us = if rounds > 0.0 { tick_us / slow } else { 0.0 };
            let tick_share = ratio(tick_us * rounds, run_s * 1e6);
            layer.insert("network.idle_tick_us", tick_us);
            layer.insert("network.tick_share_est", tick_share);
            attributed += queue_share + tick_share;

            // One sample of the sharded event core on the first world.
            let mut sharded = first.clone();
            sharded.cfg.shards = 8;
            let (eight, timing, slowdown) = run_calibrated(&mut cal, &World::Sim(sharded));
            slowdowns.push(slowdown);
            if eight.serialized != outcomes[0].serialized {
                errors.push("world 0: eight shards produced a different report".into());
            }
            layer.insert(
                "network.shards8_over_single",
                ratio(timing.run_s, plain[0].run_s),
            );

            // The sweep's wall time on two workers against the
            // sequential pass above: the only place a second thread
            // ever starts.
            let sequential = sum(&plain, Timing::total_s);
            let ((parallel, wall), slowdown) = cal.around(|| {
                let started = now();
                let reports = ert_par::map_ordered(2, worlds.iter().collect(), |world: &World| {
                    run_world(world, &mut Spans::off(), false).0.serialized
                });
                (reports, started.elapsed().as_secs_f64())
            });
            slowdowns.push(slowdown);
            if parallel
                .iter()
                .zip(&outcomes)
                .any(|(p, o)| *p != o.serialized)
            {
                errors.push("two workers produced different reports".into());
            }
            layer.insert("par.speedup_w2", ratio(sequential, wall / slowdown));
        }
        World::Wire(first) => {
            let twin_run_s = sum(&plain, |t| t.twin_run_s);
            let probe_rpcs = count(|o| o.probe_rpcs);
            layer.insert("minidht.new_ms", med(&plain, |t| t.twin_setup_s) * 1e3);
            layer.insert("minidht.lookups_per_s", ratio(lookups, twin_run_s));
            layer.insert("minidht.us_per_hop", ratio(twin_run_s * 1e6, hops));
            layer.insert("node.cluster_new_ms", med(&plain, |t| t.setup_s) * 1e3);
            layer.insert("node.us_per_hop", ratio(run_s * 1e6, hops));
            layer.insert("node.wire_over_sim", ratio(run_s, twin_run_s));
            layer.insert("node.probe_rpcs_per_hop", ratio(probe_rpcs, hops));
            layer.insert("node.adapt_rpcs", count(|o| o.adapt_rpcs));
            layer.insert("node.trace_hops", count(|o| o.trace_hops));
            let (codec, slow) = cal.around(|| kernels::codec_ns(first.bits, probe_budget * 3.0));
            let frame_ns = (codec.encode + codec.decode) / slow;
            layer.insert("node.codec_encode_ns", codec.encode / slow);
            layer.insert("node.codec_decode_ns", codec.decode / slow);
            layer.insert("node.codec_frame_bytes", codec.frame_bytes as f64);
            layer.insert("node.probe_request_ns", codec.probe_request / slow);
            // One frame per hop, a request and a report per probe, one
            // reply per lookup. Adaptation RPCs are left out: their
            // frames are smaller than the probed Lookup frame, and what
            // they cost stays in the unattributed remainder.
            let frames = hops + 2.0 * probe_rpcs + lookups;
            let codec_share = ratio(frames * frame_ns, run_s * 1e9);
            layer.insert("node.codec_share_est", codec_share);
            attributed += codec_share;
        }
    }
    layer.insert("bench.machine_slowdown", median(&slowdowns));
    layer.insert("run.unattributed_share_est", 1.0 - attributed);

    let attempted: u64 = outcomes.iter().map(|o| o.issued).sum();
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    if completed != attempted {
        errors.push(format!(
            "{} of {attempted} lookups did not complete",
            attempted - completed
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name.to_owned(),
            value: layer[m.name],
            unit: m.unit.to_owned(),
        })
        .collect();
    let result = RunResult {
        workload: workload.name.to_owned(),
        seed,
        traced: true,
        correct: errors.is_empty(),
        attempted,
        failed: attempted - completed,
        metrics,
        samples: BTreeMap::new(),
        fingerprint: fingerprint(&outcomes),
        errors,
    };
    let doc = TraceDoc {
        workload: workload.name.to_owned(),
        seed,
        available_parallelism: ert_par::default_jobs(),
        spans: spans.spans().to_vec(),
        span_totals: spans.totals(),
        layers: layer,
    };
    (result, doc)
}
