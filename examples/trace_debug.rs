//! Deterministic replay debugging with the telemetry trace ring.
//!
//! Simulations are reproducible from a single seed, so debugging a
//! surprising metric is: re-run with tracing on and read the tail. This
//! example traces a small congested run and reconstructs one query's
//! full journey (inject → per-hop forwards → completion) from the ring.
//!
//! Run with: `cargo run --release --example trace_debug`

#![forbid(unsafe_code)]

use ert_repro::network::{Network, NetworkConfig, ProtocolSpec};
use ert_repro::overlay::CycloidSpace;
use ert_repro::sim::SimRng;
use ert_repro::workloads::{uniform_lookups, BoundedPareto};
use ert_telemetry::Telemetry;

fn main() {
    let n = 128;
    let mut rng = SimRng::seed_from(404);
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
    let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), 404);

    let mut net =
        Network::new(cfg, &capacities, ProtocolSpec::ert_af()).expect("configuration is valid");
    net.set_telemetry(Telemetry::with_trace_capacity(4096));
    let report = net.run(&uniform_lookups(120, n as f64, &mut rng), &[]);

    println!(
        "ran {} lookups, mean time {:.2}s; trace retained {} of {} events\n",
        report.lookups_completed,
        report.lookup_time.mean,
        net.telemetry().trace().len(),
        net.telemetry().events_emitted()
    );

    // Reconstruct the journey of one query from the trace.
    let target = "q42 ";
    println!("journey of query 42:");
    for (at, event) in net.telemetry().trace() {
        let line = event.to_string();
        if line.starts_with(target) {
            println!("  [{at}] {line}");
        }
    }

    // And the overall tail, the way one would scan it in a debug
    // session.
    println!("\nlast 10 events:");
    let trace = net.telemetry().trace();
    for (at, event) in trace.iter().skip(trace.len().saturating_sub(10)) {
        println!("  [{at}] {event}");
    }
}
