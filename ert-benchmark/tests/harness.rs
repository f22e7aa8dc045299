//! End-to-end checks of the harness on the `--quick` shapes.

use ert_benchmark::harness::{end_to_end, run_sweep, run_world, trace_pass};
use ert_benchmark::metrics::{END_TO_END, PER_LAYER};
use ert_benchmark::spans::Spans;
use ert_benchmark::workload::{find, Kind, Workload, World, WORKLOADS};
use ert_experiments::scenario::{ChurnSpec, Workload as Shape};
use ert_experiments::Scenario;

fn quick(name: &str) -> Workload {
    find(name).expect("a known workload").quick()
}

/// The worlds the harness generates are the worlds
/// `Scenario::run_once` runs for the same shape and seed: this guards
/// the harness's copy of the private `Scenario::build`.
#[test]
fn sim_worlds_mirror_scenario_run_once() {
    for w in WORKLOADS.map(|w| w.quick()) {
        let Kind::Sim { churn_skew, .. } = w.kind else {
            continue;
        };
        let mut scenario = Scenario::quick(0);
        scenario.n = w.n;
        scenario.lookups = w.lookups;
        if churn_skew {
            scenario.workload = Shape::Impulse {
                nodes: 100,
                keys: 50,
            };
            scenario.churn = Some(ChurnSpec {
                join_interarrival: 0.5 / w.n as f64,
                leave_interarrival: 0.5 / w.n as f64,
            });
        }
        let world = w.generate(5, 1);
        let World::Sim(sim) = &world else {
            panic!("{} generates simulator worlds", w.name);
        };
        assert_eq!(sim.seed, 5001);
        let expected = scenario.run_once(&sim.protocol, sim.seed);
        let (outcome, _) = run_world(&world, &mut Spans::off(), false);
        assert_eq!(outcome.error, None, "{}", w.name);
        assert_eq!(
            outcome.serialized,
            serde::json::to_string(&expected),
            "{}",
            w.name
        );
        assert_eq!(outcome.completed, expected.lookups_completed);
    }
}

/// The exact metrics are functions of the seed: equal across two runs
/// of one seed, different across seeds. Host-time metrics are positive.
#[test]
fn exact_metrics_repeat_per_seed_and_differ_across_seeds() {
    for name in ["sim-table2", "wire-chord1k"] {
        let w = quick(name);
        let run = |seed| end_to_end(w, seed, &run_sweep(w, seed, 0.0));
        let (a, again, other) = (run(3), run(3), run(4));
        assert!(
            a.correct && again.correct && other.correct,
            "{:?}",
            a.errors
        );
        assert_eq!(a.fingerprint, again.fingerprint, "{name}");
        assert_ne!(a.fingerprint, other.fingerprint, "{name}");
        assert_eq!(a.attempted, (w.worlds * w.lookups) as u64);
        assert_eq!(a.failed, 0);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        for m in &END_TO_END {
            let (x, y, z) = (a.value(m.name), again.value(m.name), other.value(m.name));
            assert!(
                x.is_some_and(|v| v.is_finite() && v > 0.0),
                "{name} {}",
                m.name
            );
            if m.exact {
                assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "{name} {}",
                    m.name
                );
            }
            if m.exact && m.name != "completed_frac" {
                assert_ne!(x, z, "{name} {}", m.name);
            }
        }
        assert_eq!(a.samples["lookups_per_s"].len(), w.worlds);
    }
}

/// Without a time budget every world is timed exactly once; with one,
/// the sweep keeps cycling, and every repeat must reproduce its world's
/// report. (A second of budget against a cycle of about a tenth of
/// one, so that a slow box does not fail the test.)
#[test]
fn a_time_budget_buys_repeats_that_must_agree() {
    let w = quick("sim-forward2k");
    let once = run_sweep(w, 9, 0.0);
    assert!(once.timings.iter().all(|t| t.len() == 1));
    let sweep = run_sweep(w, 9, 1.0);
    assert!(sweep.errors.is_empty(), "{:?}", sweep.errors);
    assert_eq!(sweep.outcomes.len(), w.worlds);
    assert!(sweep.timings[0].len() >= 2, "a second buys a second cycle");
    assert_eq!(
        sweep.slowdowns.len(),
        sweep.timings.iter().map(Vec::len).sum()
    );
}

/// The traced pass prints every per-layer metric for every workload,
/// records the spans around each layer call, and reads zero where a
/// layer is not on the workload's path.
#[test]
fn traced_pass_reports_every_layer_metric() {
    for w in [
        quick("sim-forward2k"),
        quick("sim-churn-skew"),
        quick("wire-chord1k"),
    ] {
        let (result, doc) = trace_pass(w, 2, 0.2);
        assert!(result.correct, "{}: {:?}", w.name, result.errors);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name), "{}", w.name);
        assert!(
            result.metrics.iter().all(|m| m.value.is_finite()),
            "{}",
            w.name
        );
        let value = |name: &str| result.value(name).expect(name);
        let span_names: Vec<&str> = doc.span_totals.keys().copied().collect();
        match w.kind {
            Kind::Sim {
                adaptation,
                churn_skew,
            } => {
                assert_eq!(
                    span_names,
                    [
                        "network.new",
                        "network.run",
                        "report.digest",
                        "workloads.generate",
                        "world"
                    ]
                );
                assert!(value("network.events") > 0.0 && value("network.us_per_event") > 0.0);
                assert!(value("telemetry.events_emitted") > 0.0);
                assert!(value("par.speedup_w2") > 0.0);
                assert_eq!(value("node.wire_over_sim"), 0.0);
                assert_eq!(value("network.churn_events") > 0.0, churn_skew);
                // ERT/F schedules no tick: nothing for a tick change
                // to move.
                assert_eq!(value("network.adapt_rounds") > 0.0, adaptation);
                assert_eq!(value("network.tick_share_est") > 0.0, adaptation);
            }
            Kind::Wire { .. } => {
                assert_eq!(
                    span_names,
                    [
                        "minidht.new",
                        "minidht.run_schedule",
                        "node.cluster_new",
                        "node.run_schedule",
                        "report.digest",
                        "workloads.generate",
                        "world"
                    ]
                );
                assert!(value("node.wire_over_sim") > 0.0);
                assert!(value("node.probe_rpcs_per_hop") > 0.0);
                assert!(value("node.codec_frame_bytes") > 0.0);
                assert!(value("node.trace_hops") > 0.0);
                assert_eq!(value("network.events"), 0.0);
            }
        }
        assert!(doc.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let runs: std::collections::BTreeSet<u64> = doc.spans.iter().map(|s| s.run).collect();
        assert_eq!(runs.len(), w.traced_worlds, "one run id per traced world");
    }
}
