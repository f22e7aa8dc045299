//! The ERT mechanism is overlay-agnostic: Section 3.2 defines indegree
//! expansion on Chord, Pastry and Tapestry as well as Cycloid. These
//! tests drive `ert_core`'s table construction and expansion over Chord
//! and Pastry geometries through small [`Directory`] adapters.

use std::collections::BTreeMap;

use ert_repro::core::{
    assign::initial_indegree_target, build_table, expand_indegree, max_indegree, Directory,
    ErtParams,
};
use ert_repro::overlay::{ChordRegistry, ChordSpace, PastryRegistry, PastrySpace};
use ert_repro::sim::SimRng;

/// State shared by both adapters: per-node tables, indegrees, capacities.
struct Links {
    d_max: BTreeMap<u64, u32>,
    indegree: BTreeMap<u64, u32>,
    links: Vec<(u64, u32, u64)>, // (from, slot, to)
}

impl Links {
    fn new(ids: impl Iterator<Item = (u64, u32)>) -> Self {
        Links {
            d_max: ids.collect(),
            indegree: BTreeMap::new(),
            links: Vec::new(),
        }
    }

    fn link_if_absent(&mut self, from: u64, slot: u32, to: u64) -> bool {
        if self.links.contains(&(from, slot, to)) {
            return false;
        }
        self.links.push((from, slot, to));
        *self.indegree.entry(to).or_insert(0) += 1;
        true
    }
}

struct ChordDirectory {
    space: ChordSpace,
    registry: ChordRegistry,
    state: Links,
}

impl Directory for ChordDirectory {
    type Id = u64;
    type Slot = u32;

    fn table_slots(&self, node: u64) -> Vec<(u32, Vec<u64>)> {
        (0..self.space.bits())
            .map(|m| {
                let region = self.space.finger_region(node, m);
                (m as u32, self.registry.nodes_in(region))
            })
            .collect()
    }

    fn inlink_candidates(&self, node: u64) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for m in 0..self.space.bits() {
            let region = self.space.reverse_finger_region(node, m);
            for cand in self.registry.nodes_in(region) {
                out.push((m as u32, cand));
            }
        }
        out
    }

    fn spare_indegree(&self, node: u64) -> i64 {
        self.state.d_max[&node] as i64 - self.state.indegree.get(&node).copied().unwrap_or(0) as i64
    }

    fn indegree(&self, node: u64) -> u32 {
        self.state.indegree.get(&node).copied().unwrap_or(0)
    }

    fn link_if_absent(&mut self, from: u64, slot: u32, to: u64) -> bool {
        self.state.link_if_absent(from, slot, to)
    }
}

struct PastryDirectory {
    space: PastrySpace,
    registry: PastryRegistry,
    state: Links,
}

impl Directory for PastryDirectory {
    type Id = u64;
    // Slot = row * base + col.
    type Slot = u32;

    fn table_slots(&self, node: u64) -> Vec<(u32, Vec<u64>)> {
        let mut out = Vec::new();
        for row in 0..self.space.rows() {
            for col in 0..self.space.base() {
                if let Some((lo, hi)) = self.space.row_region(node, row, col) {
                    let slot = row as u32 * self.space.base() as u32 + col as u32;
                    out.push((slot, self.registry.nodes_in_span(lo, hi)));
                }
            }
        }
        out
    }

    fn inlink_candidates(&self, node: u64) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for row in 0..self.space.rows() {
            // The candidates differ from us at digit `row`; in *their*
            // table we sit at (row, our digit at that row).
            let our_col = self.space.digit(node, row);
            let slot = row as u32 * self.space.base() as u32 + our_col as u32;
            for (lo, hi) in self.space.reverse_row_regions(node, row) {
                for cand in self.registry.nodes_in_span(lo, hi) {
                    out.push((slot, cand));
                }
            }
        }
        out
    }

    fn spare_indegree(&self, node: u64) -> i64 {
        self.state.d_max[&node] as i64 - self.state.indegree.get(&node).copied().unwrap_or(0) as i64
    }

    fn indegree(&self, node: u64) -> u32 {
        self.state.indegree.get(&node).copied().unwrap_or(0)
    }

    fn link_if_absent(&mut self, from: u64, slot: u32, to: u64) -> bool {
        self.state.link_if_absent(from, slot, to)
    }
}

fn capacities(ids: &[u64], rng: &mut SimRng) -> Vec<(u64, u32)> {
    use rand::Rng;
    ids.iter()
        .map(|&id| (id, max_indegree(8.0, 0.25 + rng.gen::<f64>() * 2.0)))
        .collect()
}

#[test]
fn ert_builds_and_expands_on_chord() {
    let space = ChordSpace::new(9);
    let mut registry = ChordRegistry::new(space);
    let mut rng = SimRng::seed_from(71);
    while registry.len() < 160 {
        registry.insert(space.random_id(&mut rng));
    }
    let ids: Vec<u64> = registry.iter().collect();
    let caps = capacities(&ids, &mut rng);
    let mut dir = ChordDirectory {
        space,
        registry,
        state: Links::new(caps.into_iter()),
    };
    let params = ErtParams {
        beta: 0.75,
        ..ErtParams::default()
    };

    let mut reached = 0;
    for &id in &ids {
        let created = build_table(&mut dir, id, &mut rng);
        assert!(created > 0, "node {id:#b} built an empty table");
        let target = initial_indegree_target(&params, dir.state.d_max[&id]);
        expand_indegree(&mut dir, id, target);
        if dir.indegree(id) >= target {
            reached += 1;
        }
    }
    // Validity: every link's target lies in the finger region of its slot.
    for &(from, slot, to) in &dir.state.links {
        assert!(
            dir.space.finger_region(from, slot as u8).contains(to),
            "invalid chord link {from:#b} -[{slot}]-> {to:#b}"
        );
    }
    assert!(
        reached * 2 >= ids.len(),
        "only {reached}/{} chord nodes reached their indegree target",
        ids.len()
    );
}

#[test]
fn ert_builds_and_expands_on_pastry() {
    let space = PastrySpace::new(4, 2);
    let mut registry = PastryRegistry::new(space);
    let mut rng = SimRng::seed_from(72);
    while registry.len() < 120 {
        registry.insert(space.random_id(&mut rng));
    }
    let ids: Vec<u64> = registry.iter().collect();
    let caps = capacities(&ids, &mut rng);
    let mut dir = PastryDirectory {
        space,
        registry,
        state: Links::new(caps.into_iter()),
    };
    let params = ErtParams::default();

    for &id in &ids {
        build_table(&mut dir, id, &mut rng);
        let target = initial_indegree_target(&params, dir.state.d_max[&id]);
        expand_indegree(&mut dir, id, target);
    }
    // Validity: every link's target shares the prefix and column its
    // slot demands.
    for &(from, slot, to) in &dir.state.links {
        let row = (slot / dir.space.base() as u32) as u8;
        let col = (slot % dir.space.base() as u32) as u64;
        let (lo, hi) = dir
            .space
            .row_region(from, row, col)
            .expect("occupied slots differ from own digit");
        assert!(
            (lo..=hi).contains(&to),
            "invalid pastry link {from:#x} -[r{row} c{col}]-> {to:#x}"
        );
    }
    // Expansion must have produced meaningful indegree somewhere.
    let expanded = ids.iter().filter(|&&id| dir.indegree(id) >= 3).count();
    assert!(
        expanded * 3 >= ids.len(),
        "{expanded}/{} pastry nodes expanded",
        ids.len()
    );
}
