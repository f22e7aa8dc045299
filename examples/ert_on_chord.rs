//! ERT beyond Cycloid: the same mechanism on Chord and Pastry.
//!
//! Section 5 of the paper remarks that ERT applies to other DHTs and
//! that O(log n)-degree overlays should do even better. This example
//! runs classic and elastic variants of both mini platforms side by
//! side, then prints the Cycloid ERT/AF row for comparison.
//!
//! Run with: `cargo run --release --example ert_on_chord`

#![forbid(unsafe_code)]

use ert_repro::experiments::chord::{cross_overlay_table, run_mini, MiniGeometryKind};
use ert_repro::experiments::Scenario;
use ert_repro::minidht::MiniProtocol;

fn main() {
    let mut scenario = Scenario {
        n: 512,
        lookups: 2000,
        per_node_rate: 1.0,
        light_service_secs: 0.2,
        seeds: vec![11],
        workload: ert_repro::experiments::Workload::Uniform,
        churn: None,
        chaos: None,
        adversary: Vec::new(),
        jobs: None,
        shards: 0,
    };
    println!("{}", cross_overlay_table(&scenario));

    println!("raising the load 3x (service 0.6 s):\n");
    scenario.light_service_secs = 0.6;
    for kind in [MiniGeometryKind::Chord, MiniGeometryKind::Pastry] {
        for protocol in [MiniProtocol::Classic, MiniProtocol::ElasticErt] {
            let r = run_mini(&scenario, kind, protocol, 11);
            println!(
                "{:<12} p99 congestion {:>6.2}   mean lookup {:>7.2}s   heavy hits {:>6}",
                r.protocol, r.p99_max_congestion, r.lookup_time.mean, r.heavy_encounters
            );
        }
    }
    println!("\nThe elastic mechanism ports unchanged: `ert-core` provides the");
    println!("tables, assignment, adaptation and forwarding; only the overlay");
    println!("geometry (slot regions and their reverses) differs.");
}
