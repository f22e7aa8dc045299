//! Quickstart: build an ERT-controlled Cycloid network, feed it a
//! lookup stream, and read the congestion/lookup metrics.
//!
//! Run with: `cargo run --release --example quickstart`

#![forbid(unsafe_code)]

use ert_repro::network::{Network, NetworkConfig, ProtocolSpec};
use ert_repro::overlay::CycloidSpace;
use ert_repro::sim::SimRng;
use ert_repro::workloads::{uniform_lookups, BoundedPareto};

fn main() {
    // 1. Sample heterogeneous node capacities (Table 2: bounded Pareto,
    //    shape 2, 500–50000).
    let n = 512;
    let mut rng = SimRng::seed_from(2026);
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);

    // 2. Configure the simulation. The Cycloid dimension follows the
    //    network size; `α = d + 3` and the Table 2 service times are the
    //    defaults.
    let dim = CycloidSpace::dimension_for(n);
    let cfg = NetworkConfig::for_dimension(dim, 2026);

    // 3. Pick a protocol: full ERT with indegree adaptation and
    //    topology-aware two-choice forwarding.
    let mut net =
        Network::new(cfg, &capacities, ProtocolSpec::ert_af()).expect("configuration is valid");

    // 4. Generate a Poisson lookup stream (one lookup per node-second)
    //    and run.
    let lookups = uniform_lookups(1500, n as f64, &mut rng);
    let report = net.run(&lookups, &[]);

    println!("protocol                 : {}", report.protocol);
    println!(
        "lookups completed        : {}/{}",
        report.lookups_completed, report.lookups_started
    );
    println!(
        "mean path length         : {:.2} hops",
        report.mean_path_length
    );
    println!(
        "mean lookup time         : {:.3} s",
        report.lookup_time.mean
    );
    println!("p99 lookup time          : {:.3} s", report.lookup_time.p99);
    println!(
        "p99 max congestion (l/c) : {:.3}",
        report.p99_max_congestion
    );
    println!("p99 fair-share ratio     : {:.3}", report.p99_share);
    println!("heavy nodes in routings  : {}", report.heavy_encounters);
    println!(
        "timeouts per lookup      : {:.4}",
        report.timeouts_per_lookup
    );
}
