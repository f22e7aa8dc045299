//! Capacity planner: what should `α` (indegree per unit capacity) be?
//!
//! Section 3.1 warns that a small `α` under-uses high-capacity nodes
//! while a large `α` overloads low-capacity ones and inflates
//! maintenance. This example sweeps `α` around the paper's `d + 3`
//! default and reports the trade-off — congestion vs. table size — plus
//! the queueing-model view of what the two-choice forwarding layer
//! contributes at each load.
//!
//! Run with: `cargo run --release --example capacity_planner`

#![forbid(unsafe_code)]

use ert_repro::network::{Network, NetworkConfig, ProtocolSpec};
use ert_repro::overlay::CycloidSpace;
use ert_repro::sim::SimRng;
use ert_repro::supermarket::{expected_time, ChoicePolicy, SupermarketSim};
use ert_repro::workloads::{uniform_lookups, BoundedPareto};

fn main() {
    let n = 512;
    let dim = CycloidSpace::dimension_for(n);
    println!(
        "alpha sweep at n = {n} (dimension {dim}; paper default alpha = {})\n",
        dim + 3
    );
    println!(
        "{:>6} {:>16} {:>12} {:>14}",
        "alpha", "p99 congestion", "p99 share", "mean indegree"
    );
    for alpha in [4.0, 8.0, dim as f64 + 3.0, 16.0, 24.0] {
        let mut rng = SimRng::seed_from(31);
        let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
        let mut cfg = NetworkConfig::for_dimension(dim, 31);
        cfg.ert.alpha = alpha;
        let mut net = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).expect("valid config");
        let lookups = uniform_lookups(1200, n as f64, &mut rng);
        let r = net.run(&lookups, &[]);
        println!(
            "{alpha:>6.1} {:>16.3} {:>12.3} {:>14.2}",
            r.p99_max_congestion, r.p99_share, r.max_indegree.mean
        );
    }

    println!("\nforwarding layer (supermarket model, exp(1) service):\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "load", "1-way (s)", "2-way (s)", "sim 2-way"
    );
    for lambda in [0.7, 0.9, 0.97] {
        let sim = SupermarketSim::new(300, lambda);
        let s2 = sim
            .run(ChoicePolicy::shortest_of(2), 800.0, 31)
            .mean_time_in_system;
        println!(
            "{lambda:>6.2} {:>12.2} {:>12.2} {:>12.2}",
            expected_time(lambda, 1),
            expected_time(lambda, 2),
            s2
        );
    }
    println!("\nReading: pick alpha near d+3 — smaller starves high-capacity");
    println!("nodes of inlinks; larger inflates tables without lowering");
    println!("congestion further. The 2-way column is Theorem 4.1's win.");
}
