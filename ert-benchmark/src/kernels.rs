//! Layer probes: small timed kernels over the measured crates' public
//! functions, parameterised by the workload's dimension and
//! population.
//!
//! These are the bodies of `crates/bench/benches/micro_core.rs`'s
//! Criterion kernels, generalised: where the Criterion target fixes
//! dimension 8 and a 1000-event queue, each probe here takes the size
//! from the workload it attributes time for. Every probe runs batches
//! until its time budget is spent and reports the median batch, in
//! nanoseconds per operation.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Duration;

use ert_core::{
    adaptation_action, choose_next_b, select_shed_victims, Candidate, ElasticTable, ErtParams,
    ForwardPolicy, ShedCandidate,
};
use ert_minidht::{MiniDhtConfig, MiniProtocol};
use ert_network::{KeyPick, Lookup, Network, NetworkConfig, ProtocolSpec, SourcePick};
use ert_node::{decode, encode, Message, WireNode};
use ert_overlay::{CycloidId, CycloidRegistry, CycloidSpace};
use ert_sim::{EventQueue, ShardedEngine, SimDuration, SimRng, SimTime};

use crate::spans::now;
use crate::stats::median;

/// Operations per timed batch of the nanosecond-scale probes.
const BATCH: usize = 4096;

/// Runs `batch` (which performs `ops` operations and returns the time
/// they took) until `budget_s` host seconds are spent, at least three
/// times, and returns the median nanoseconds per operation.
fn median_ns_per_op(budget_s: f64, ops: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let started = now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        samples.push(batch().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// Times `f` once.
fn timed(f: impl FnOnce()) -> Duration {
    let started = now();
    f();
    started.elapsed()
}

/// A cheap deterministic stream for probe inputs (the probes must not
/// spend their time in ChaCha).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One `pop` + `schedule` pair on [`EventQueue`] held at `depth`
/// pending events (the classic hold model): the queue's cost per
/// simulated event at the workload's backlog.
pub fn queue_ns_per_op(depth: usize, budget_s: f64) -> f64 {
    let mut xs = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) as u64 {
        q.schedule(SimTime::from_micros(xs.next() % 1_000_000), i);
    }
    median_ns_per_op(budget_s, BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                let (at, ev) = q.pop().expect("held at depth");
                q.schedule(at + SimDuration::from_micros(1 + xs.next() % 1_000_000), ev);
            }
        })
    })
}

/// The same hold model on [`ShardedEngine`] with eight shards, events
/// spread round-robin so most schedules cross a mailbox.
pub fn sharded8_ns_per_op(depth: usize, budget_s: f64) -> f64 {
    const SHARDS: usize = 8;
    let mut xs = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut q = ShardedEngine::new(SHARDS);
    for i in 0..depth.max(1) as u64 {
        q.schedule_at(
            SimTime::from_micros(xs.next() % 1_000_000),
            i as usize % SHARDS,
            i,
        );
    }
    median_ns_per_op(budget_s, BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                let (_, ev) = q.pop().expect("held at depth");
                q.schedule_in(
                    SimDuration::from_micros(1 + xs.next() % 1_000_000),
                    xs.next() as usize % SHARDS,
                    ev,
                );
            }
        })
    })
}

/// Timings of the Cycloid overlay primitives at one dimension and
/// population.
#[derive(Debug, Clone, Copy)]
pub struct OverlayNs {
    /// `CycloidSpace::route_step`.
    pub route_step: f64,
    /// `CycloidRegistry::owner`.
    pub owner: f64,
    /// `CycloidRegistry::nodes_in_region` over cubical regions.
    pub region_query: f64,
}

/// Probes the overlay at the dimension that fits `population` nodes,
/// with that many registered.
pub fn overlay_ns(population: usize, budget_s: f64) -> OverlayNs {
    let space = CycloidSpace::new(CycloidSpace::dimension_for(population));
    let mut rng = SimRng::seed_from(population as u64);
    let mut reg = CycloidRegistry::new(space);
    while reg.len() < population {
        reg.insert(space.random_id(&mut rng));
    }
    let pairs: Vec<(CycloidId, CycloidId)> = (0..BATCH)
        .map(|_| (space.random_id(&mut rng), space.random_id(&mut rng)))
        .collect();
    let regions: Vec<_> = reg
        .iter()
        .filter_map(|id| space.cubical_region(id))
        .take(BATCH)
        .collect();
    let each = budget_s / 3.0;
    OverlayNs {
        route_step: median_ns_per_op(each, pairs.len(), || {
            timed(|| {
                for &(cur, key) in &pairs {
                    black_box(space.route_step(black_box(cur), black_box(key)));
                }
            })
        }),
        owner: median_ns_per_op(each, pairs.len(), || {
            timed(|| {
                for &(_, key) in &pairs {
                    black_box(reg.owner(black_box(key)));
                }
            })
        }),
        region_query: median_ns_per_op(each, regions.len(), || {
            timed(|| {
                for &region in &regions {
                    black_box(reg.nodes_in_region(black_box(region)));
                }
            })
        }),
    }
}

/// Timings of the `ert-core` decisions and table operations.
#[derive(Debug, Clone, Copy)]
pub struct CoreNs {
    /// One Algorithm 4 decision: `choose_next_b`, b=2, topology-aware
    /// with memory, 8 candidates, a 2-entry avoid set.
    pub decision: f64,
    /// One `ElasticTable` `add_outlink` + `remove_outlink` pair.
    pub table_op: f64,
    /// One `purge_peer` on a table that starts with 64 links.
    pub purge: f64,
    /// One Algorithm 3 decision: `adaptation_action` plus
    /// `select_shed_victims` over 32 fingers.
    pub adapt_decision: f64,
}

/// Probes the core layer.
pub fn core_ns(budget_s: f64) -> CoreNs {
    let each = budget_s / 4.0;
    let candidates: Vec<Candidate<u32>> = (0..8)
        .map(|i| Candidate {
            id: i,
            load: (i % 3) as f64,
            capacity: 10.0,
            logical_distance: (8 - i) as u64,
            physical_distance: 0.1 * i as f64,
        })
        .collect();
    let avoid: BTreeSet<u32> = [2, 5].into_iter().collect();
    let policy = ForwardPolicy::TwoChoice {
        topology_aware: true,
        use_memory: true,
    };
    let mut rng = SimRng::seed_from(1);
    let decision = median_ns_per_op(each, BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                black_box(choose_next_b(
                    policy,
                    black_box(&candidates),
                    Some(3),
                    &avoid,
                    1.0,
                    2,
                    &mut rng,
                ));
            }
        })
    });

    let mut table: ElasticTable<u8, u32> = ElasticTable::new();
    let table_op = median_ns_per_op(each, BATCH, || {
        timed(|| {
            for round in 0..BATCH / 32 {
                for i in 0..32u32 {
                    table.add_outlink((i % 4) as u8, black_box(i + round as u32));
                }
                for i in 0..32u32 {
                    table.remove_outlink((i % 4) as u8, black_box(i + round as u32));
                }
            }
        })
    });

    const LINKS: u32 = 64;
    let purge = median_ns_per_op(each, LINKS as usize, || {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        for i in 0..LINKS {
            t.add_outlink((i % 4) as u8, i);
            t.add_backward(i);
        }
        timed(|| {
            for i in 0..LINKS {
                black_box(t.purge_peer(black_box(i)));
            }
        })
    });

    let params = ErtParams::default();
    let fingers: Vec<ShedCandidate<u32>> = (0..32)
        .map(|i| ShedCandidate {
            id: i,
            logical_distance: (i as u64 * 37) % 19,
            physical_distance: 0.01 * i as f64,
        })
        .collect();
    let adapt_decision = median_ns_per_op(each, BATCH, || {
        timed(|| {
            for i in 0..BATCH {
                let load = 8.0 + (i % 16) as f64;
                black_box(adaptation_action(black_box(load), 10.0, &params));
                black_box(select_shed_victims(black_box(&fingers), 4));
            }
        })
    });

    CoreNs {
        decision,
        table_op,
        purge,
        adapt_decision,
    }
}

/// Host microseconds of one adaptation tick on an idle network of the
/// given shape, and the rounds it was averaged over: a single lookup is
/// scheduled `rounds` adaptation periods in, so the run is that many
/// ticks with nothing else to do. A lower bound on a tick's cost under
/// load, where `on_adapt_tick` also sheds and grows links.
pub fn idle_tick_us(
    cfg: &NetworkConfig,
    capacities: &[f64],
    protocol: &ProtocolSpec,
    rounds: u32,
) -> (f64, u64) {
    let mut net = Network::new(*cfg, capacities, protocol.clone()).expect("valid probe scenario");
    let at = SimTime::ZERO
        + SimDuration::from_secs_f64(cfg.ert.adaptation_period.as_secs_f64() * f64::from(rounds));
    let lookup = Lookup {
        at,
        source: SourcePick::Random,
        key: KeyPick::Random,
    };
    let elapsed = timed(|| {
        black_box(net.run(&[lookup], &[]));
    });
    let done = net.adapt_rounds();
    (elapsed.as_secs_f64() * 1e6 / done.max(1) as f64, done)
}

/// Timings of the wire codec and the RPC handler.
#[derive(Debug, Clone, Copy)]
pub struct CodecNs {
    /// `encode` of a `Lookup` frame with a 4-entry avoid set.
    pub encode: f64,
    /// `decode` of that frame.
    pub decode: f64,
    /// Length of that frame in bytes.
    pub frame_bytes: usize,
    /// `WireNode::on_request` answering a `ProbeLoad` frame (decode,
    /// load report, encode).
    pub probe_request: f64,
}

/// Probes the wire layer below the switch.
pub fn codec_ns(bits: u8, budget_s: f64) -> CodecNs {
    let each = budget_s / 3.0;
    let msg = Message::Lookup {
        query: 123_456,
        key: 0x000a_bcde,
        hops: 3,
        attempts: 0,
        flags: 0,
        avoid: vec![11, 2222, 333_333, 444_444],
    };
    let frame = encode(&msg);
    let encode_ns = median_ns_per_op(each, BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                black_box(encode(black_box(&msg)));
            }
        })
    });
    let decode_ns = median_ns_per_op(each, BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                black_box(decode(black_box(&frame))).expect("own frame decodes");
            }
        })
    });
    let cfg = MiniDhtConfig::defaults(bits, 1);
    let view: Vec<u64> = (1..=16u64).map(|i| i * 1000).collect();
    let mut node = WireNode::new(1000, bits, &view, 1000.0, 8, &cfg, MiniProtocol::ElasticErt);
    let probe = encode(&Message::ProbeLoad { token: 7 });
    let probe_request = median_ns_per_op(each, BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                black_box(node.on_request(black_box(&probe))).expect("probe is an RPC");
            }
        })
    });
    CodecNs {
        encode: encode_ns,
        decode: decode_ns,
        frame_bytes: frame.len(),
        probe_request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ert_workloads::BoundedPareto;

    const BUDGET: f64 = 0.01;

    #[test]
    fn probes_return_positive_finite_times() {
        for ns in [
            queue_ns_per_op(200, BUDGET),
            sharded8_ns_per_op(200, BUDGET),
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{ns}");
        }
        let o = overlay_ns(128, BUDGET);
        let c = core_ns(BUDGET);
        let w = codec_ns(20, BUDGET);
        for ns in [
            o.route_step,
            o.owner,
            o.region_query,
            c.decision,
            c.table_op,
            c.purge,
            c.adapt_decision,
            w.encode,
            w.decode,
            w.probe_request,
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{ns}");
        }
        assert!(w.frame_bytes > 4 * 8, "{}", w.frame_bytes);
    }

    /// The idle-tick probe really sits through the rounds it divides
    /// by.
    #[test]
    fn idle_tick_probe_counts_its_rounds() {
        let n = 128;
        let caps = BoundedPareto::paper_default().sample_n(n, &mut SimRng::seed_from(3));
        let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), 3);
        let (us, rounds) = idle_tick_us(&cfg, &caps, &ProtocolSpec::ert_af(), 200);
        assert!(rounds >= 200, "{rounds}");
        assert!(us.is_finite() && us > 0.0, "{us}");
        let (_, none) = idle_tick_us(&cfg, &caps, &ProtocolSpec::ert_f(), 200);
        assert_eq!(none, 0, "ERT/F schedules no adaptation tick");
    }
}
