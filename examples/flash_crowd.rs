//! Flash crowd: a suddenly-popular set of files draws skewed lookups
//! from one corner of the ID space — the Section 5.4 "impulse".
//!
//! Compares how plain Cycloid (Base), virtual servers (VS), and ERT/AF
//! absorb the spike. Expected shape (Fig. 8): VS degrades *below* Base
//! because consecutive virtual IDs concentrate the hot interval on few
//! real hosts, while ERT/AF sheds the hot spot via indegree adaptation
//! and two-choice forwarding.
//!
//! Run with: `cargo run --release --example flash_crowd`

#![forbid(unsafe_code)]

use ert_repro::baselines::{base, vs};
use ert_repro::experiments::{Scenario, Workload};
use ert_repro::network::ProtocolSpec;

fn main() {
    let mut scenario = Scenario {
        n: 512,
        lookups: 1500,
        per_node_rate: 1.0,
        light_service_secs: 0.6,
        seeds: vec![1, 2],
        workload: Workload::Impulse {
            nodes: 50,
            keys: 20,
        },
        churn: None,
        chaos: None,
        adversary: Vec::new(),
        jobs: None,
        shards: 0,
    };
    println!("flash crowd: 50 co-located requesters hammer 20 keys\n");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "protocol", "completed", "heavy-hits", "p99 share", "time (s)"
    );
    for spec in [base(), vs(scenario.n), ProtocolSpec::ert_af()] {
        let r = scenario.run(&spec);
        println!(
            "{:<8} {:>10} {:>12} {:>12.2} {:>10.3}",
            r.protocol, r.lookups_completed, r.heavy_encounters, r.p99_share, r.lookup_time.mean
        );
    }
    // The same crowd, twice as slow to serve: congestion compounds.
    scenario.light_service_secs = 1.2;
    println!("\nsame crowd, 2x slower service:\n");
    for spec in [base(), vs(scenario.n), ProtocolSpec::ert_af()] {
        let r = scenario.run(&spec);
        println!(
            "{:<8} {:>10} {:>12} {:>12.2} {:>10.3}",
            r.protocol, r.lookups_completed, r.heavy_encounters, r.p99_share, r.lookup_time.mean
        );
    }
}
