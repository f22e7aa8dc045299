//! Property-based tests (proptest) on the core data structures and
//! geometric invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;

use ert_repro::core::{
    adaptation_action, choose_next, AdaptAction, Candidate, ElasticTable, ErtParams, ForwardPolicy,
};
use ert_repro::overlay::{ring, ChordSpace, CycloidRegistry, CycloidSpace, PastrySpace, RingRange};
use ert_repro::sim::stats::Samples;
use ert_repro::sim::SimRng;
use ert_testkit::strategies;

proptest! {
    /// Cubical/cyclic regions and their reverses are exact duals at any
    /// dimension.
    #[test]
    fn cycloid_region_duality(dim in 3u8..12, seed in 0u64..1000) {
        let space = CycloidSpace::new(dim);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let i = space.random_id(&mut rng);
            let j = space.random_id(&mut rng);
            let cub_fwd = space.cubical_region(j).is_some_and(|r| r.contains(i));
            let cub_rev = space.reverse_cubical_region(i).is_some_and(|r| r.contains(j));
            prop_assert_eq!(cub_fwd, cub_rev);
            let cyc_fwd = space.cyclic_region(j).is_some_and(|r| r.contains(i));
            let cyc_rev = space.reverse_cyclic_region(i).is_some_and(|r| r.contains(j));
            prop_assert_eq!(cyc_fwd, cyc_rev);
        }
    }

    /// Chord finger regions and reverse regions are exact duals.
    #[test]
    fn chord_finger_duality(bits in 3u8..12, node in 0u64..4096, m in 0u8..11, probe in 0u64..4096) {
        prop_assume!(m < bits);
        let space = ChordSpace::new(bits);
        let node = node % space.ring_size();
        let probe = probe % space.ring_size();
        let fwd = space.finger_region(probe, m).contains(node);
        let rev = space.reverse_finger_region(node, m).contains(probe);
        prop_assert_eq!(fwd, rev);
    }

    /// Pastry row regions and reverse row regions are exact duals.
    #[test]
    fn pastry_row_duality(node in 0u64..65536, probe in 0u64..65536, row in 0u8..4) {
        let space = PastrySpace::new(4, 2);
        let node = node % space.ring_size();
        let probe = probe % space.ring_size();
        prop_assume!(probe != node);
        let col = space.digit(node, row);
        let fwd = space
            .row_region(probe, row, col)
            .is_some_and(|(lo, hi)| (lo..=hi).contains(&node));
        let rev = space
            .reverse_row_regions(node, row)
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&probe));
        prop_assert_eq!(fwd, rev);
    }

    /// Registry owner is the ring successor: owner(key) is live, and no
    /// live node sits strictly between key and owner.
    #[test]
    fn cycloid_owner_is_successor(dim in 3u8..9, seed in 0u64..500, population in 2usize..60) {
        let space = CycloidSpace::new(dim);
        let mut reg = CycloidRegistry::new(space);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..population {
            if let Some(id) = reg.random_vacant(&mut rng) {
                reg.insert(id);
            }
        }
        let key = space.random_id(&mut rng);
        let owner = reg.owner(key).expect("nonempty registry");
        prop_assert!(reg.contains(owner));
        let key_lin = space.lin(key);
        let owner_lin = space.lin(owner);
        let dist = ring::forward_distance(key_lin, owner_lin, space.ring_size());
        for member in reg.iter() {
            let d = ring::forward_distance(key_lin, space.lin(member), space.ring_size());
            prop_assert!(d >= dist, "member {member} is closer than owner {owner}");
        }
    }

    /// Chord greedy routes terminate at the owner from any start, on
    /// any population.
    #[test]
    fn chord_routes_terminate(bits in 5u8..11, seed in 0u64..300, population in 2usize..80) {
        let space = ChordSpace::new(bits);
        let mut reg = ert_repro::overlay::ChordRegistry::new(space);
        let mut rng = SimRng::seed_from(seed);
        while reg.len() < population.min(space.ring_size() as usize / 2) {
            reg.insert(space.random_id(&mut rng));
        }
        let ids: Vec<u64> = reg.iter().collect();
        let from = ids[(seed as usize) % ids.len()];
        let key = space.random_id(&mut rng);
        let path = reg.route_path(from, key, 4 * bits as usize + 8);
        let path = path.expect("route must terminate");
        prop_assert_eq!(*path.last().unwrap(), reg.owner(key).unwrap());
        // Strict ring progress at every hop.
        for w in path.windows(2) {
            let before = ring::forward_distance(w[0], reg.owner(key).unwrap(), space.ring_size());
            let after = ring::forward_distance(w[1], reg.owner(key).unwrap(), space.ring_size());
            prop_assert!(after < before, "hop {} -> {} did not progress", w[0], w[1]);
        }
    }

    /// Pastry routes terminate at the numerically closest node.
    #[test]
    fn pastry_routes_terminate(seed in 0u64..300, population in 2usize..80) {
        let space = PastrySpace::new(5, 2);
        let mut reg = ert_repro::overlay::PastryRegistry::new(space);
        let mut rng = SimRng::seed_from(seed);
        while reg.len() < population {
            reg.insert(space.random_id(&mut rng));
        }
        let ids: Vec<u64> = reg.iter().collect();
        let from = ids[(seed as usize) % ids.len()];
        let key = space.random_id(&mut rng);
        let path = reg.route_path(from, key, 64).expect("route must terminate");
        prop_assert_eq!(*path.last().unwrap(), reg.owner(key).unwrap());
        prop_assert!(path.len() <= 16, "path too long: {}", path.len());
    }

    /// RingRange membership agrees with its unwrapped spans.
    #[test]
    fn ring_range_spans_agree(start in 0u64..256, len in 0u64..256, point in 0u64..256) {
        let arc = RingRange::new(start, len, 256);
        let by_contains = arc.contains(point);
        let by_spans = arc
            .unwrapped_spans()
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&point));
        prop_assert_eq!(by_contains, by_spans);
    }

    /// Percentiles are monotone in p and bracketed by min/max.
    #[test]
    fn percentiles_are_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: Samples = values.iter().copied().collect();
        let p10 = s.percentile(0.10);
        let p50 = s.percentile(0.50);
        let p99 = s.percentile(0.99);
        prop_assert!(p10 <= p50 && p50 <= p99);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p10 >= lo && p99 <= hi);
    }

    /// Adaptation never sheds when underloaded or grows when overloaded,
    /// and the step size scales with the imbalance.
    #[test]
    fn adaptation_direction_is_correct(load in 0.0f64..1000.0, capacity in 1.0f64..500.0,
                                       gamma_l in 1.0f64..3.0, mu in 0.05f64..1.0) {
        let params = ErtParams { gamma_l, mu, ..ErtParams::default() };
        match adaptation_action(load, capacity, &params) {
            AdaptAction::Shed(x) => {
                prop_assert!(load / capacity > gamma_l);
                prop_assert!(x as f64 >= mu * (load - capacity) - 1.0);
            }
            AdaptAction::Grow(x) => {
                prop_assert!(load / capacity < 1.0 / gamma_l);
                prop_assert!(x as f64 >= mu * (capacity - load) - 1.0);
            }
            AdaptAction::Keep => {
                let g = load / capacity;
                let in_band = g <= gamma_l + 1e-12 && g >= 1.0 / gamma_l - 1e-12;
                // Keep is also legal when the rounded step is zero.
                let tiny = (mu * (load - capacity).abs()).ceil() == 0.0;
                prop_assert!(in_band || tiny);
            }
        }
    }

    /// The forwarding choice is always one of the candidates, never a
    /// node from the avoid set while alternatives exist, and marks only
    /// genuinely heavy nodes as overloaded.
    #[test]
    fn forwarding_choice_is_sound(seed in 0u64..2000, n_cands in 1usize..8,
                                  avoid_mask in 0usize..255) {
        let mut rng = SimRng::seed_from(seed);
        let candidates: Vec<Candidate<u32>> = (0..n_cands as u32)
            .map(|i| Candidate {
                id: i,
                load: ((seed + i as u64 * 7) % 30) as f64,
                capacity: 10.0,
                logical_distance: ((seed / 3 + i as u64) % 20),
                physical_distance: ((i as f64) * 0.1) % 0.7,
            })
            .collect();
        let avoid: BTreeSet<u32> =
            (0..n_cands as u32).filter(|&i| avoid_mask & (1 << i) != 0).collect();
        let policy = ForwardPolicy::TwoChoice { topology_aware: true, use_memory: true };
        let choice = choose_next(policy, &candidates, Some(0), &avoid, 1.0, &mut rng)
            .expect("candidates nonempty");
        prop_assert!(candidates.iter().any(|c| c.id == choice.next));
        if avoid.len() < n_cands {
            prop_assert!(!avoid.contains(&choice.next), "picked an avoided node");
        }
        for id in &choice.newly_overloaded {
            let c = candidates.iter().find(|c| c.id == *id).unwrap();
            prop_assert!(c.load / c.capacity > 1.0);
        }
    }

    /// ElasticTable bookkeeping: indegree equals distinct backward
    /// fingers; purge removes every trace.
    #[test]
    fn elastic_table_bookkeeping(ops in prop::collection::vec((0u8..4, 0u8..4, 0u32..12), 0..100)) {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        let mut backward: BTreeSet<u32> = BTreeSet::new();
        for (op, slot, id) in ops {
            match op {
                0 => {
                    t.add_outlink(slot, id);
                }
                1 => {
                    t.remove_outlink(slot, id);
                }
                2 => {
                    t.add_backward(id);
                    backward.insert(id);
                }
                _ => {
                    t.purge_peer(id);
                    backward.remove(&id);
                }
            }
            prop_assert_eq!(t.indegree(), backward.len());
        }
        let all: Vec<u32> = backward.iter().copied().collect();
        for id in all {
            t.purge_peer(id);
            prop_assert!(!t.has_outlink_to(id));
        }
        prop_assert_eq!(t.indegree(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole-network smoke property: any tiny network under any of the
    /// six protocols completes its lookups (no livelock, no lost
    /// queries), with or without a churn burst. The network recipe is
    /// the shared `testkit::strategies::small_world` — the same draw
    /// order the fault property and the determinism pins use.
    #[test]
    fn tiny_networks_always_complete(world in strategies::small_world(24usize..96),
                                     proto in 0usize..6, churny in proptest::bool::ANY) {
        use ert_repro::baselines::all_protocols;
        use ert_repro::network::{ChurnEvent, Network};

        let mut world = world;
        let spec = all_protocols(world.n).swap_remove(proto);
        let mut net = Network::new(world.cfg, &world.capacities, spec).expect("valid network");
        let lookups = world.lookups(60);
        let churn: Vec<ChurnEvent> = if churny {
            let mid = lookups[30].at;
            (0..world.n / 6).map(|_| ChurnEvent::Leave { at: mid }).collect()
        } else {
            Vec::new()
        };
        let r = net.run(&lookups, &churn);
        prop_assert_eq!(r.lookups_completed + r.lookups_dropped, 60);
        prop_assert!(r.lookups_dropped <= 3, "dropped {}", r.lookups_dropped);
    }

    /// Shard-count invariance as a property: any small world from the
    /// shared `testkit::strategies::small_world` recipe, under any of
    /// the six protocols, reports byte-identically on the sharded core
    /// at an arbitrary shard count (including non-powers of two) as on
    /// the legacy single event loop.
    #[test]
    fn sharded_core_is_invariant_on_arbitrary_worlds(
        world in strategies::small_world(24usize..96),
        proto in 0usize..6, shards in 1usize..9) {
        use ert_repro::baselines::all_protocols;
        use ert_repro::network::Network;

        let mut world = world;
        let spec = all_protocols(world.n).swap_remove(proto);
        let lookups = world.lookups(60);
        world.cfg.shards = 0;
        let mut legacy = Network::new(world.cfg, &world.capacities, spec.clone())
            .expect("valid network");
        let reference = serde::json::to_string(&legacy.run(&lookups, &[]));
        world.cfg.shards = shards;
        let mut sharded = Network::new(world.cfg, &world.capacities, spec).expect("valid network");
        prop_assert_eq!(
            reference,
            serde::json::to_string(&sharded.run(&lookups, &[])),
            "shard count {} leaked into the report", shards
        );
    }

    /// Fault-plan property: any small syntactically valid plan — any
    /// mix of environment faults and adversary kinds — with retries on
    /// or off, conserves lookups exactly, flood lookups included, and
    /// the runtime sanitizer (armed in debug builds) audits that
    /// balance after every event without firing. Event tuples come from
    /// the shared `testkit::strategies::fault_events` strategy and
    /// decode through the canonical `fault_plan` assembler.
    #[test]
    fn arbitrary_fault_plans_conserve_lookups(
        world in strategies::small_world(48usize..49),
        retries in proptest::bool::ANY,
        events in strategies::fault_events(),
    ) {
        use ert_repro::faults::{FaultKind, RetryPolicy};
        use ert_repro::network::{Network, ProtocolSpec};

        let mut world = world;
        if retries {
            world.cfg.retry = RetryPolicy::standard();
        }
        let plan = strategies::fault_plan(world.seed, &events);
        prop_assert!(plan.validate().is_ok());
        let mut net = Network::new(world.cfg, &world.capacities, ProtocolSpec::ert_af())
            .expect("valid network");
        let lookups = world.lookups(60);
        let r = net.run_with_faults(&lookups, &[], &plan);
        // A flood fires iff it is due by the run's end; each one that
        // fired adds its queries to the ledger.
        let flooded: u64 = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::QueryFlood { queries, .. } if e.at.as_secs_f64() <= r.sim_seconds => {
                    Some(u64::from(queries))
                }
                _ => None,
            })
            .sum();
        prop_assert_eq!(r.lookups_started, 60 + flooded);
        prop_assert_eq!(
            r.lookups_completed + r.lookups_dropped + r.lookups_failed,
            r.lookups_started
        );
        if cfg!(debug_assertions) {
            prop_assert!(net.sanitize_checks() > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Executor property: a fanned-out per-seed report is a pure
    /// function of its seed — invariant under the worker count (1..=8)
    /// and under any rotation of the seed list. Reports are compared
    /// through their full JSON serialization, keyed by seed.
    #[test]
    fn fan_out_invariant_under_workers_and_seed_order(
        seed in 0u64..1_000, workers in 1usize..9, rot in 0usize..4) {
        use std::collections::BTreeMap;

        use ert_repro::baselines::base;
        use ert_repro::experiments::{try_run_batch, RunCell, Scenario};

        let mut s = Scenario::quick(seed);
        s.n = 48;
        s.lookups = 40;
        let spec = base();
        let run = |workers: usize, seeds: &[u64]| {
            let cells = seeds
                .iter()
                .map(|&seed| RunCell {
                    scenario: &s,
                    spec: &spec,
                    seed,
                    tweak: Box::new(|_| {}),
                })
                .collect();
            try_run_batch(workers, cells)
                .into_iter()
                .map(|outcome| serde::json::to_string(&outcome.expect("healthy run")))
                .collect::<Vec<_>>()
        };
        let mut seeds = vec![seed, seed + 1, seed + 2, seed + 3];
        let reference: BTreeMap<u64, String> =
            seeds.iter().copied().zip(run(1, &seeds)).collect();

        seeds.rotate_left(rot);
        let fanned = run(workers, &seeds);
        for (seed, report) in seeds.iter().zip(&fanned) {
            prop_assert_eq!(
                report,
                &reference[seed],
                "seed {} diverged at {} workers, rotation {}", seed, workers, rot
            );
        }
    }
}

/// A `Topology` of `world`'s hosts, each on one random vacant ID, every
/// table built, then with the nodes `leave` picks departed, so that
/// routing meets stale links, slot repairs and ring fallbacks.
fn routed_topology(
    world: &strategies::SmallWorld,
    policy: ert_repro::network::TablePolicy,
    leave: u64,
) -> (ert_repro::network::topology::Topology, SimRng) {
    use ert_repro::core::max_indegree;
    use ert_repro::network::state::Host;
    use ert_repro::network::topology::Topology;
    use ert_repro::overlay::Coord;

    let space = CycloidSpace::new(CycloidSpace::dimension_for(world.n));
    let params = world.cfg.ert;
    let mut topo = Topology::new(space, policy, params);
    let mut rng = SimRng::seed_from(world.seed);
    for &cap in &world.capacities {
        let d_max = max_indegree(params.alpha, cap);
        let host = topo.add_host(Host::new(cap, cap, cap, d_max, Coord::random(&mut rng)));
        if let Some(id) = topo.registry.random_vacant(&mut rng) {
            topo.add_node(id, host, d_max);
        }
    }
    for n in 0..topo.nodes.len() {
        topo.build_node_table(n, &mut rng);
    }
    for n in (0..topo.nodes.len()).step_by(3) {
        if leave >> (n % 64) & 1 == 1 {
            topo.remove_node(n);
        }
    }
    (topo, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Topology::route_candidates` clears and fills the caller's
    /// buffer: into one buffer reused across every hop, and so holding
    /// the hop before's ids, it answers exactly as into a fresh `Vec`
    /// — the same slot, ids, owner and fallback flag, and the same
    /// links purged and slots repaired, so two twin worlds stay twins.
    /// Lookups walk from random live nodes toward random keys, probing
    /// (dead candidates filtered) or not, on any table policy, after a
    /// random third of the nodes at most departed.
    #[test]
    fn route_candidates_fill_a_reused_buffer_as_a_fresh_one(
        world in strategies::small_world(24usize..96),
        policy in 0usize..3,
        leave in 0u64..u64::MAX,
        walks in prop::collection::vec((0usize..usize::MAX, 0u64..u64::MAX), 1..40),
    ) {
        use ert_repro::network::TablePolicy;

        let policy = [
            TablePolicy::SingleClosest,
            TablePolicy::SingleHighestCapacity,
            TablePolicy::Elastic,
        ][policy];
        let (mut reused_world, mut reused_rng) = routed_topology(&world, policy, leave);
        let (mut fresh_world, mut fresh_rng) = routed_topology(&world, policy, leave);
        let mut reused = Vec::new();
        let mut hops = 0usize;
        for (w, &(start, key)) in walks.iter().enumerate() {
            let live: Vec<usize> = (0..reused_world.nodes.len())
                .filter(|&n| reused_world.nodes[n].alive)
                .collect();
            let key = reused_world.space.from_lin(key % reused_world.space.ring_size());
            let mut node = live[start % live.len()];
            let (probing, mut ring_only) = (w % 2 == 0, false);
            for _ in 0..64 {
                let mut fresh = Vec::new();
                let got = reused_world.route_candidates(
                    node, key, probing, ring_only, &mut reused_rng, &mut reused,
                );
                let want = fresh_world.route_candidates(
                    node, key, probing, ring_only, &mut fresh_rng, &mut fresh,
                );
                prop_assert_eq!(got, want, "walk {} from node {}", w, node);
                prop_assert_eq!(&reused, &fresh, "walk {} from node {}", w, node);
                let Some(rc) = got else { break };
                hops += 1;
                ring_only |= rc.fell_back;
                let next = reused
                    .iter()
                    .copied()
                    .filter(|&x| reused_world.is_alive(x))
                    .min_by_key(|&x| reused_world.logical_metric(x, key));
                let Some(next) = next else { break };
                node = reused_world.node_idx(next).expect("live candidate");
            }
        }
        prop_assert!(hops > 0, "no walk took a hop");
        prop_assert_eq!(reused_world.link_ops, fresh_world.link_ops);
    }
}
