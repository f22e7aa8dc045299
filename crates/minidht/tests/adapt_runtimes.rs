//! Algorithm 3 has one step for both runtimes that adapt indegree: the
//! Cycloid simulator's `Topology` and the shared `ErtNode`, run here on
//! this crate's Chord geometry.

use std::collections::BTreeMap;

use ert_core::{
    adapt_step, adaptation_action, drive, max_indegree, select_shed_victims, AdaptStep, ErtParams,
    ShedCandidate,
};
use ert_minidht::{
    AdaptOp, AdaptTrace, ChordGeometry, ErtNode, Geometry, Lookup, MiniDhtConfig, MiniProtocol,
    PeerAnswer, PeerOp,
};
use ert_network::{state::Host, topology::Topology, TablePolicy};
use ert_overlay::{Coord, CycloidSpace};
use ert_sim::SimRng;

const BITS: u8 = 6;
const ME: u64 = 0;

/// One Algorithm 3 round of `me` after `period_load` arrivals, each ask
/// answered inline by the peer's `serve`.
fn adapt(
    g: &ChordGeometry,
    cfg: &MiniDhtConfig,
    peers: &mut BTreeMap<u64, ErtNode>,
    me: &mut ErtNode,
    period_load: u64,
) -> AdaptTrace {
    for query in 0..period_load {
        let (key, hops, attempts, numeric_mode) = (0, 0, 0, false);
        let avoid = Default::default();
        me.arrive(
            Lookup {
                query,
                key,
                hops,
                attempts,
                numeric_mode,
                avoid,
            },
            cfg,
        );
    }
    let task = me.adapt(g, cfg);
    drive(me, task, |peer, op| {
        let peer = peers.get_mut(&peer);
        peer.map_or(PeerAnswer::Unknown, |p| PeerAnswer::Report(p.serve(op)))
    })
}

/// The same Algorithm 3 sequence on a Cycloid `Topology` node (the
/// simulator's `Topology::adapt`) and on an `ErtNode` (its adapt task,
/// answered inline), from one (capacity, indegree, `d^∞`) and one
/// load per round. Both size through `ert_core::adapt_step`, so shed
/// counts, grow asks, `d^∞` and indegree agree round by round.
/// Victims follow each runtime's own rule: the farthest holders
/// (`select_shed_victims`) on Cycloid, the newest fingers here.
#[test]
fn both_runtimes_take_one_adaptation_sequence_alike() {
    /// The members of `before` that `after` no longer holds.
    fn dropped<T: Copy + PartialEq>(before: &[T], after: &[T]) -> Vec<T> {
        before
            .iter()
            .filter(|f| !after.contains(f))
            .copied()
            .collect()
    }

    let space = CycloidSpace::new(4);
    let mut topo = Topology::new(space, TablePolicy::Elastic, ErtParams::default());
    let mut rng = SimRng::seed_from(42);
    let capacity = max_indegree(7.0, 1.0);
    for lin in 0..space.ring_size() {
        let host = Host::new(1000.0, 1.0, 1.0, capacity, Coord::random(&mut rng));
        let host = topo.add_host(host);
        topo.add_node(space.from_lin(lin), host, capacity);
    }
    for n in 0..topo.nodes.len() {
        topo.build_node_table(n, &mut rng);
    }
    let t = (0..topo.nodes.len())
        .find(|&n| topo.nodes[n].table.indegree() >= 4)
        .expect("some node has four inlinks");
    let t_id = topo.nodes[t].id;

    // A dense ring, so the node's grows find as much supply as the
    // Cycloid node's; its first inlinks are its first holders.
    let all: Vec<u64> = (0..1 << BITS).collect();
    let (g, cfg) = (
        ChordGeometry::from_members(BITS, &all),
        MiniDhtConfig::defaults(BITS, 9),
    );
    let mut peers: BTreeMap<u64, ErtNode> = all[1..]
        .iter()
        .map(|&id| (id, ErtNode::new(id, 8, MiniProtocol::ElasticErt)))
        .collect();
    // A fresh node's `d^∞` is its capacity, as a fresh Cycloid node's.
    let mut me = ErtNode::new(ME, capacity, MiniProtocol::ElasticErt);
    let mut candidates: Vec<(u16, u64)> = g.inlink_candidates(ME, None).collect();
    candidates.dedup_by_key(|&mut (_, holder)| holder);
    for &(slot, holder) in &candidates[..topo.nodes[t].table.indegree()] {
        let op = AdaptOp::AddOutlink;
        peers
            .get_mut(&holder)
            .unwrap()
            .serve(PeerOp::Link { from: ME, slot, op });
        let op = AdaptOp::AddBackward;
        me.serve(PeerOp::Link {
            from: holder,
            slot,
            op,
        });
    }
    assert_eq!(cfg.ert.mu, topo.params.mu);
    assert_eq!(cfg.ert.gamma_l, topo.params.gamma_l);

    // Shed two, grow ⌈μc⌉, shed everything, grow again.
    let loads = [capacity as u64 + 4, 0, capacity as u64 + 1000, 0];
    let mut sheds = 0;
    for load in loads {
        let (indegree, d_max) = (me.indegree(), me.d_max());
        assert_eq!(topo.nodes[t].table.indegree() as u32, indegree);
        assert_eq!(topo.nodes[t].d_max(), d_max);
        let action = adaptation_action(load as f64, capacity as f64, &cfg.ert);
        let fingers = topo.nodes[t].table.backward_fingers().to_vec();
        let ranked: Vec<ShedCandidate<_>> = fingers
            .iter()
            .map(|&bf| ShedCandidate {
                id: bf,
                logical_distance: topo.logical_metric(bf, t_id),
                physical_distance: topo.phys_dist(bf, t_id),
            })
            .collect();
        let newest = me.table().backward_fingers().to_vec();

        let (step, links) = topo.adapt(t, action);
        let trace = adapt(&g, &cfg, &mut peers, &mut me, load);
        assert_eq!(step, adapt_step(action, capacity, indegree, d_max));
        match step {
            AdaptStep::Shed { count, d_max } => {
                sheds += 1;
                assert_eq!((links, trace.delta), (count, -i64::from(count)));
                assert_eq!(me.d_max(), d_max);
                let mut cut = dropped(&fingers, topo.nodes[t].table.backward_fingers());
                let mut farthest = select_shed_victims(&ranked, count);
                cut.sort();
                farthest.sort();
                assert_eq!(cut, farthest, "Cycloid sheds its farthest holders");
                let cut = dropped(&newest, me.table().backward_fingers());
                assert_eq!(cut, newest[newest.len() - count as usize..]);
            }
            AdaptStep::Grow { ask, target, d_max } => {
                assert_eq!(trace.delta, i64::from(ask));
                assert_eq!(me.d_max(), d_max);
                assert_eq!(me.indegree(), target, "the dense ring meets the target");
            }
            AdaptStep::Keep => panic!("load {load} kept"),
        }
        assert_eq!(trace.d_max, me.d_max());
    }
    assert_eq!(sheds, 2);
    assert_eq!(topo.nodes[t].table.indegree() as u32, me.indegree());
    assert_eq!(topo.nodes[t].d_max(), me.d_max());
}
