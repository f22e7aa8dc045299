//! Deterministic replay debugging with the trace log.
//!
//! Simulations are reproducible from a single seed, so debugging a
//! surprising metric is: re-run with tracing on and read the tail. This
//! example traces a small congested run and reconstructs one query's
//! full journey (inject → per-hop forwards → completion) from the log.
//!
//! Run with: `cargo run --release --example trace_debug`

#![forbid(unsafe_code)]

use ert_repro::network::{Network, NetworkConfig, ProtocolSpec};
use ert_repro::overlay::CycloidSpace;
use ert_repro::sim::SimRng;
use ert_repro::workloads::{uniform_lookups, BoundedPareto};

fn main() {
    let n = 128;
    let mut rng = SimRng::seed_from(404);
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
    let mut cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), 404);
    cfg.trace_capacity = 4096;

    let mut net =
        Network::new(cfg, &capacities, ProtocolSpec::ert_af()).expect("configuration is valid");
    let report = net.run(&uniform_lookups(120, n as f64, &mut rng), &[]);

    println!(
        "ran {} lookups, mean time {:.2}s; trace retained {} of {} events\n",
        report.lookups_completed,
        report.lookup_time.mean,
        net.trace().len(),
        net.trace().total_recorded()
    );

    // Reconstruct the journey of one query from the trace.
    let target = "q42 ";
    println!("journey of query 42:");
    for (at, line) in net.trace().iter() {
        if line.starts_with(target) {
            println!("  [{at}] {line}");
        }
    }

    // And the overall tail, the way one would scan it in a debug
    // session.
    println!("\nlast 10 events:");
    let tail: Vec<String> = net
        .trace()
        .iter()
        .map(|(t, m)| format!("  [{t}] {m}"))
        .collect();
    for line in tail.iter().rev().take(10).rev() {
        println!("{line}");
    }
}
