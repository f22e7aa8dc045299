//! Churny swarm: a file-sharing swarm where peers join and leave every
//! few lookups (Section 5.5). Shows why the elastic table's multiple
//! candidates per slot eliminate routing timeouts while the single-link
//! baselines keep tripping over departed neighbors.
//!
//! Run with: `cargo run --release --example churny_swarm`

#![forbid(unsafe_code)]

use ert_repro::baselines::{base, ns};
use ert_repro::experiments::{fig9, Scenario};
use ert_repro::network::ProtocolSpec;

fn main() {
    let mut scenario = Scenario {
        n: 512,
        lookups: 1500,
        per_node_rate: 1.0,
        light_service_secs: 0.2,
        seeds: vec![7],
        workload: ert_repro::experiments::Workload::Uniform,
        churn: None,
        chaos: None,
        adversary: Vec::new(),
        jobs: None,
        shards: 0,
    };
    println!("swarm under churn (paper-scale interarrival sweep)\n");
    println!(
        "{:<6} {:<8} {:>10} {:>14} {:>14} {:>14} {:>12}",
        "ia (s)",
        "protocol",
        "completed",
        "p99 congestion",
        "timeouts/lkup",
        "handoffs/lkup",
        "path (hops)"
    );
    for ia in [0.2, 0.8] {
        scenario.churn = Some(fig9::churn_spec_for(&scenario, ia));
        for spec in [base(), ns(), ProtocolSpec::ert_af()] {
            let r = scenario.run(&spec);
            println!(
                "{:<6} {:<8} {:>10} {:>14.2} {:>14.4} {:>14.4} {:>12.2}",
                ia,
                r.protocol,
                r.lookups_completed,
                r.p99_max_congestion,
                r.timeouts_per_lookup,
                r.handoffs_per_lookup,
                r.mean_path_length
            );
        }
    }
    println!("\nERT/AF probes candidates before forwarding, so departed");
    println!("neighbors are discovered for free (timeouts ~ 0); Base and NS");
    println!("pay a stale-link timeout each time a dead neighbor is tried.");
    println!("Handoffs — queries whose current node departs mid-flight — hit");
    println!("every protocol alike and are reported separately.");
}
