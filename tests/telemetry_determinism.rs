//! The telemetry stream is a deterministic function of the seed, and
//! observing a run never changes it.
//!
//! Two properties are pinned here:
//!
//! 1. **Byte-identical replay** — the same fixed-seed scenario run
//!    twice produces byte-for-byte the same JSONL event stream and the
//!    same snapshot series.
//! 2. **Observer neutrality** — running with telemetry (sinks attached,
//!    sampler on) yields exactly the [`ert_network::RunReport`] of an
//!    uninstrumented run.

use ert_network::{Network, NetworkConfig, ProtocolSpec};
use ert_sim::SimDuration;
use ert_telemetry::{MemorySink, Telemetry};

fn capacities(n: usize) -> Vec<f64> {
    (0..n).map(|i| 600.0 + 250.0 * (i % 5) as f64).collect()
}

fn fixed_config() -> NetworkConfig {
    let mut cfg = NetworkConfig::for_dimension(6, 17);
    cfg.sample_interval = SimDuration::from_secs_f64(0.5);
    cfg
}

/// Runs the fixed scenario with a memory sink and returns the recorded
/// JSONL lines plus the report.
fn instrumented_run() -> (Vec<String>, ert_network::RunReport) {
    let caps = capacities(96);
    let lookups = ert_network::network::uniform_lookup_burst(200, 96.0, 17);
    let mut net = Network::new(fixed_config(), &caps, ProtocolSpec::ert_af()).unwrap();
    let sink = MemorySink::new();
    let lines = sink.handle();
    let mut tel = Telemetry::disabled();
    tel.add_sink(Box::new(sink));
    net.set_telemetry(tel);
    let report = net.run(&lookups, &[]);
    let lines = lines.lock().unwrap().clone();
    (lines, report)
}

#[test]
fn event_stream_is_byte_identical_across_runs() {
    let (a, ra) = instrumented_run();
    let (b, rb) = instrumented_run();
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len(), "stream lengths diverged");
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(la, lb, "line {i} diverged");
    }
    assert_eq!(ra.lookup_time.mean, rb.lookup_time.mean);
}

#[test]
fn stream_has_events_snapshots_and_monotone_timestamps() {
    let (lines, _) = instrumented_run();
    let kinds: std::collections::BTreeSet<&str> = lines
        .iter()
        .filter(|l| l.starts_with("{\"kind\":\"event\""))
        .filter_map(|l| l.split("\"event\":{\"").nth(1)?.split('"').next())
        .collect();
    assert!(kinds.len() >= 3, "want >=3 event kinds, got {kinds:?}");

    // Snapshot timestamps strictly increase on the 0.5 s grid.
    let snapshot_ats: Vec<u64> = lines
        .iter()
        .filter(|l| l.starts_with("{\"kind\":\"snapshot\""))
        .filter_map(|l| l.split("\"at\":").nth(1)?.split(',').next()?.parse().ok())
        .collect();
    assert!(
        snapshot_ats.len() >= 2,
        "want several snapshots, got {snapshot_ats:?}"
    );
    assert!(
        snapshot_ats.windows(2).all(|w| w[0] < w[1]),
        "{snapshot_ats:?}"
    );
    assert!(
        snapshot_ats.iter().all(|at| at % 500_000 == 0),
        "{snapshot_ats:?}"
    );

    // Event timestamps are non-decreasing (FIFO-stable sim clock).
    let event_ats: Vec<u64> = lines
        .iter()
        .filter(|l| l.starts_with("{\"kind\":\"event\""))
        .filter_map(|l| l.split("\"at\":").nth(1)?.split(',').next()?.parse().ok())
        .collect();
    assert!(event_ats.windows(2).all(|w| w[0] <= w[1]));
}

/// The event tags a lookup-trace tree is built from: per-hop spans plus
/// the lifecycle events that delimit each tree (events are externally
/// tagged, so the tag is the first key of the `"event"` object).
const SPAN_TAGS: [&str; 3] = [
    "\"event\":{\"HopSpan\"",
    "\"event\":{\"LookupStart\"",
    "\"event\":{\"LookupComplete\"",
];

/// Runs the fixed scenario with a memory sink attached and returns the
/// span stream (the [`SPAN_TAGS`] records, in order) plus the report.
fn traced_run() -> (Vec<String>, ert_network::RunReport) {
    let (lines, report) = instrumented_run();
    let spans = lines
        .into_iter()
        .filter(|l| SPAN_TAGS.iter().any(|tag| l.contains(tag)))
        .collect();
    (spans, report)
}

/// The same scenario traced twice yields byte-for-byte the same span
/// stream and the same report — and the stream actually carries
/// [`HopSpan`] records for the causal per-hop breakdown.
#[test]
fn span_trace_is_byte_identical_and_carries_hop_spans() {
    let (a, ra) = traced_run();
    let (b, rb) = traced_run();
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len(), "trace lengths diverged");
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(la, lb, "trace line {i} diverged");
    }
    assert_eq!(serde::json::to_string(&ra), serde::json::to_string(&rb));
    assert!(
        a.iter().any(|l| l.contains("\"event\":{\"HopSpan\"")),
        "no HopSpan records in the trace"
    );
}

/// The pinned mixed adversary schedule (liars + defectors + a Sybil
/// swarm + a flood at 0.5 s) used by the adversarial observer-
/// neutrality pin below.
fn mixed_adversary_plan() -> ert_network::FaultPlan {
    use ert_network::{FaultEvent, FaultKind};
    let at = ert_sim::SimTime::from_micros(500_000);
    let mut plan = ert_network::FaultPlan::new(23);
    plan.events = vec![
        FaultEvent {
            at,
            kind: FaultKind::CapacityLiar {
                fraction: 0.2,
                error: 4.0,
            },
        },
        FaultEvent {
            at,
            kind: FaultKind::RoutingDefector { fraction: 0.2 },
        },
        FaultEvent {
            at,
            kind: FaultKind::SybilSwarm {
                count: 6,
                region: 0.37,
            },
        },
        FaultEvent {
            at,
            kind: FaultKind::QueryFlood {
                key: 0.37,
                queries: 80,
                window: SimDuration::from_secs_f64(0.5),
            },
        },
    ];
    plan
}

/// Observer neutrality extends to attacked runs: instrumenting a run
/// whose plan mixes all four adversary classes reproduces the
/// uninstrumented report value-for-value, and the stream actually
/// carries every adversary event kind.
#[test]
fn adversarial_telemetry_does_not_perturb_the_report() {
    let caps = capacities(96);
    let lookups = ert_network::network::uniform_lookup_burst(200, 96.0, 17);
    let plan = mixed_adversary_plan();

    // Fully uninstrumented: default config, no sinks, no sampler.
    let cfg = NetworkConfig::for_dimension(6, 17);
    let mut plain = Network::new(cfg, &caps, ProtocolSpec::ert_af()).unwrap();
    let rp = plain.run_with_faults(&lookups, &[], &plan);

    // Instrumented: memory sink plus the 0.5 s snapshot sampler.
    let mut net = Network::new(fixed_config(), &caps, ProtocolSpec::ert_af()).unwrap();
    let sink = MemorySink::new();
    let lines = sink.handle();
    let mut tel = Telemetry::disabled();
    tel.add_sink(Box::new(sink));
    net.set_telemetry(tel);
    let rt = net.run_with_faults(&lookups, &[], &plan);
    let lines = lines.lock().unwrap().clone();

    assert_eq!(rp.lookups_completed, rt.lookups_completed);
    assert_eq!(rp.lookups_dropped, rt.lookups_dropped);
    assert_eq!(rp.lookup_time.mean, rt.lookup_time.mean);
    assert_eq!(rp.lookup_time.p99, rt.lookup_time.p99);
    assert_eq!(rp.p99_max_congestion, rt.p99_max_congestion);
    assert_eq!(rp.mean_path_length, rt.mean_path_length);
    assert_eq!(rp.heavy_encounters, rt.heavy_encounters);
    assert_eq!(rp.sim_seconds, rt.sim_seconds);

    for kind in [
        "AdversaryActivated",
        "CapacityMisreport",
        "DefectedForward",
        "FloodBurst",
    ] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"event\":{{\"{kind}\""))),
            "no {kind} event in the instrumented stream"
        );
    }
}

/// Instrumented adversarial replay is byte-identical too.
#[test]
fn adversarial_event_stream_is_byte_identical_across_runs() {
    let run = || {
        let caps = capacities(96);
        let lookups = ert_network::network::uniform_lookup_burst(200, 96.0, 17);
        let mut net = Network::new(fixed_config(), &caps, ProtocolSpec::ert_af()).unwrap();
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::disabled();
        tel.add_sink(Box::new(sink));
        net.set_telemetry(tel);
        let report = net.run_with_faults(&lookups, &[], &mixed_adversary_plan());
        let lines = lines.lock().unwrap().clone();
        (lines, report)
    };
    let (a, ra) = run();
    let (b, rb) = run();
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len(), "stream lengths diverged");
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(la, lb, "line {i} diverged");
    }
    assert_eq!(serde::json::to_string(&ra), serde::json::to_string(&rb));
}

#[test]
fn telemetry_does_not_perturb_the_report() {
    let caps = capacities(96);
    let lookups = ert_network::network::uniform_lookup_burst(200, 96.0, 17);

    // Fully uninstrumented: default config, no sinks, no sampler.
    let cfg = NetworkConfig::for_dimension(6, 17);
    let mut plain = Network::new(cfg, &caps, ProtocolSpec::ert_af()).unwrap();
    let rp = plain.run(&lookups, &[]);

    let (_, rt) = instrumented_run();
    assert_eq!(rp.lookups_completed, rt.lookups_completed);
    assert_eq!(rp.lookups_dropped, rt.lookups_dropped);
    assert_eq!(rp.lookup_time.mean, rt.lookup_time.mean);
    assert_eq!(rp.lookup_time.p99, rt.lookup_time.p99);
    assert_eq!(rp.p99_max_congestion, rt.p99_max_congestion);
    assert_eq!(rp.mean_path_length, rt.mean_path_length);
    assert_eq!(rp.heavy_encounters, rt.heavy_encounters);
    assert_eq!(rp.sim_seconds, rt.sim_seconds);
}
