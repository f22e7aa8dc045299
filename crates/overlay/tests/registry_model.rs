//! The Chord and Pastry registries' sorted-slice membership against a
//! `BTreeSet` model kept here: random interleaved inserts, bulk merges
//! and removes on 64-id rings, ids 0 and 63 drawn often, and after every
//! step each query the registries answer — owner, successor,
//! predecessor, arc and span members, `RingRange::after`, the successor
//! window and the leaf set — read back against the model's answer on
//! wrapping, whole-ring and empty arcs.

use std::collections::BTreeSet;

use ert_overlay::ring::{forward_distance, shortest_distance};
use ert_overlay::{ChordRegistry, ChordSpace, PastryRegistry, PastrySpace, RingRange};
use ert_sim::SimRng;
use proptest::prelude::{prop_assert, prop_assert_eq, ProptestConfig};
use rand::Rng;

const SIZE: u64 = 64;

/// An id, with the ring's two ends drawn far more often than uniform.
fn draw_id(rng: &mut SimRng) -> u64 {
    match rng.gen_range(0..6) {
        0 => 0,
        1 => SIZE - 1,
        _ => rng.gen_range(0..SIZE),
    }
}

/// An arc with its boundary cases drawn often: empty, the whole ring,
/// ending exactly at the ring's end, and wrapping past it.
fn draw_arc(rng: &mut SimRng) -> RingRange {
    let start = draw_id(rng);
    let len = match rng.gen_range(0..5) {
        0 => 0,
        1 => SIZE,
        2 => SIZE - start,
        _ => rng.gen_range(0..=SIZE),
    };
    RingRange::new(start, len, SIZE)
}

/// The model's members of `arc`, clockwise from its start.
fn model_arc(model: &BTreeSet<u64>, arc: RingRange) -> Vec<u64> {
    let mut ids: Vec<u64> = model.iter().copied().filter(|&m| arc.contains(m)).collect();
    ids.sort_by_key(|&m| forward_distance(arc.start(), m, SIZE));
    ids
}

fn model_after(model: &BTreeSet<u64>, id: u64) -> Option<u64> {
    model.range(id + 1..).chain(model).next().copied()
}

fn model_before(model: &BTreeSet<u64>, id: u64) -> Option<u64> {
    model.range(..id).next_back().or(model.last()).copied()
}

/// The successor window as the B-tree registry took it.
fn model_succ_window(model: &BTreeSet<u64>, id: u64, window: usize) -> Vec<u64> {
    let ring = model.range(id + 1..).chain(model.range(..id));
    ring.take(window).copied().collect()
}

/// Pastry's owner: the numerically closest member, ties to the lower.
fn model_pastry_owner(model: &BTreeSet<u64>, key: u64) -> Option<u64> {
    model
        .iter()
        .copied()
        .min_by_key(|&m| (shortest_distance(key, m, SIZE), m))
}

/// The leaf set as the B-tree registry built it: every other member,
/// stably sorted by distance, cut to the window.
fn model_leaf_set(model: &BTreeSet<u64>, id: u64, window: usize) -> Vec<u64> {
    let mut nearest: Vec<u64> = model.iter().copied().filter(|&m| m != id).collect();
    nearest.sort_by_key(|&m| shortest_distance(id, m, SIZE));
    nearest.truncate(window);
    nearest
}

/// One membership step on both registries and the model; both
/// registries' answers to it must be the model's.
fn step(
    rng: &mut SimRng,
    chord: &mut ChordRegistry,
    pastry: &mut PastryRegistry,
    model: &mut BTreeSet<u64>,
) -> Result<(), String> {
    let id = draw_id(rng);
    let (c, p, m) = match rng.gen_range(0..5) {
        0 | 1 => (chord.insert(id), pastry.insert(id), model.insert(id)),
        2 => {
            let ids: Vec<u64> = (0..rng.gen_range(0..6)).map(|_| draw_id(rng)).collect();
            for &id in &ids {
                pastry.insert(id);
            }
            let grew = ids.iter().any(|id| !model.contains(id));
            model.extend(&ids);
            (chord.extend(&ids), grew, grew)
        }
        _ => (chord.remove(id), pastry.remove(id), model.remove(&id)),
    };
    if (c, p) != (m, m) {
        return Err(format!("step on {id}: chord {c}, pastry {p}, model {m}"));
    }
    Ok(())
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_sorted_membership_answers_as_the_btree_model(seed in 0u64..100_000) {
        let mut rng = SimRng::seed_from(seed);
        let mut chord = ChordRegistry::new(ChordSpace::new(6));
        let mut pastry = PastryRegistry::new(PastrySpace::new(3, 2));
        let mut model = BTreeSet::new();
        for _ in 0..60 {
            let stepped = step(&mut rng, &mut chord, &mut pastry, &mut model);
            prop_assert!(stepped.is_ok(), "{:?}", stepped);
            let members: Vec<u64> = model.iter().copied().collect();
            prop_assert_eq!(chord.iter().collect::<Vec<_>>(), members.clone());
            prop_assert_eq!(pastry.iter().collect::<Vec<_>>(), members.clone());
            prop_assert_eq!(chord.len(), model.len());

            for _ in 0..8 {
                let id = draw_id(&mut rng);
                prop_assert_eq!(chord.contains(id), model.contains(&id));
                prop_assert_eq!(chord.owner(id), model.range(id..).chain(&model).next().copied());
                prop_assert_eq!(chord.successor(id), model_after(&model, id));
                prop_assert_eq!(chord.predecessor(id), model_before(&model, id));
                prop_assert_eq!(pastry.owner(id), model_pastry_owner(&model, id));
                let window = rng.gen_range(0..10);
                prop_assert_eq!(chord.succ_window(id, window), model_succ_window(&model, id, window));
                prop_assert_eq!(pastry.leaf_set(id, window), model_leaf_set(&model, id, window), "leaf set of {}", id);

                let arc = draw_arc(&mut rng);
                let arc_members = model_arc(&model, arc);
                prop_assert_eq!(chord.nodes_in(arc), arc_members.clone(), "{:?}", arc);
                let point = draw_id(&mut rng);
                // What a clockwise walk has left after visiting `point`.
                let passed = forward_distance(arc.start(), point, SIZE);
                let rest: Vec<u64> = arc_members
                    .iter()
                    .copied()
                    .filter(|&m| !arc.contains(point) || forward_distance(arc.start(), m, SIZE) > passed)
                    .collect();
                prop_assert_eq!(chord.nodes_in(arc.after(point)), rest, "{:?} after {}", arc, point);

                let (lo, hi) = (draw_id(&mut rng), draw_id(&mut rng));
                let span: Vec<u64> = if lo <= hi {
                    model.range(lo..=hi).copied().collect()
                } else {
                    Vec::new()
                };
                prop_assert_eq!(pastry.span(lo, hi), span.as_slice(), "[{}, {}]", lo, hi);
            }
        }
    }
}
