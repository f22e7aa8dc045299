//! Fig. 6 — the structural indegree census of plain Cycloid.
//!
//! The paper observes that classic Cycloid splits into low-indegree
//! nodes (indegree 5) and high-indegree nodes (indegree `2d + 2`:
//! 14/16/18/20/22 at dimensions 6–10) making up 10–15% of the network —
//! the motivation for capacity-aware indegrees. The census rebuilds the
//! classic 7-link tables (cubical neighbor, two cyclic neighbors, two
//! inside-leaf, two outside-leaf links) and counts inlinks.

use std::collections::BTreeMap;

use ert_overlay::{ring::forward_distance, CycloidId, CycloidRegistry, CycloidSpace};
use ert_sim::stats::Histogram;
use ert_sim::SimRng;

use crate::report::Table;

fn classic_neighbors(space: CycloidSpace, reg: &CycloidRegistry, j: CycloidId) -> Vec<CycloidId> {
    let mut out = Vec::with_capacity(7);
    // Cubical neighbor: region member closest to the bit-k flip.
    if let Some(region) = space.cubical_region(j) {
        let ideal = j.a() ^ (1u32 << j.k());
        if let Some(n) = reg
            .nodes_in_region(region)
            .into_iter()
            .filter(|&m| m != j)
            .min_by_key(|&m| space.cube_dist(m.a(), ideal))
        {
            out.push(n);
        }
    }
    // Cyclic neighbors: closest-larger and closest-smaller cubical IDs.
    if let Some(region) = space.cyclic_region(j) {
        let members: Vec<CycloidId> = reg
            .nodes_in_region(region)
            .into_iter()
            .filter(|&m| m != j)
            .collect();
        if !members.is_empty() {
            let larger = members
                .iter()
                .copied()
                .min_by_key(|m| forward_distance(j.a() as u64, m.a() as u64, space.cube_size()))
                .expect("nonempty");
            out.push(larger);
            if let Some(smaller) = members
                .iter()
                .copied()
                .filter(|&m| m != larger)
                .min_by_key(|m| forward_distance(m.a() as u64, j.a() as u64, space.cube_size()))
            {
                out.push(smaller);
            }
        }
    }
    // Inside leaf set: nearest same-cycle members above and below
    // (cyclic within the cycle).
    let cycle: Vec<CycloidId> = reg.iter().filter(|m| m.a() == j.a()).collect();
    if cycle.len() > 1 {
        let pos = cycle.iter().position(|&m| m == j).expect("j is live");
        let up = cycle[(pos + 1) % cycle.len()];
        let down = cycle[(pos + cycle.len() - 1) % cycle.len()];
        out.push(up);
        if down != up {
            out.push(down);
        }
    }
    // Outside leaf set: heads of the adjacent non-empty cycles.
    for head in [reg.next_cycle_head(j), reg.prev_cycle_head(j)]
        .into_iter()
        .flatten()
    {
        if head != j {
            out.push(head);
        }
    }
    out
}

/// Counts the indegree every node would have under classic Cycloid
/// neighbor selection, for a network of `n` nodes (IDs uniform without
/// replacement; `n = d·2^d` gives the fully-populated structure).
pub fn census(dim: u8, n: usize, seed: u64) -> Histogram {
    let space = CycloidSpace::new(dim);
    let mut reg = CycloidRegistry::new(space);
    let mut rng = SimRng::seed_from(seed);
    let n = n.min(space.ring_size() as usize);
    if n == space.ring_size() as usize {
        for lin in 0..space.ring_size() {
            reg.insert(space.from_lin(lin));
        }
    } else {
        for _ in 0..n {
            let id = reg.random_vacant(&mut rng).expect("space not full");
            reg.insert(id);
        }
    }
    let mut indegree: BTreeMap<CycloidId, u64> = reg.iter().map(|m| (m, 0)).collect();
    for j in reg.iter() {
        for nb in classic_neighbors(space, &reg, j) {
            *indegree.get_mut(&nb).expect("neighbor is live") += 1;
        }
    }
    let mut hist = Histogram::new();
    for (_, d) in indegree {
        hist.record(d);
    }
    hist
}

/// The per-dimension summary table (the paper sweeps dimensions 6–10).
pub fn summary_table(dims: &[u8], full_occupancy: bool, seed: u64) -> Table {
    let mut t = Table::new(
        "Fig. 6 — indegrees of plain Cycloid nodes",
        &[
            "dim",
            "nodes",
            "modal indegree",
            "max indegree",
            "pct high (>=2d)",
        ],
    );
    for &dim in dims {
        let space = CycloidSpace::new(dim);
        let n = if full_occupancy {
            space.ring_size() as usize
        } else {
            (space.ring_size() as usize) / 2
        };
        let hist = census(dim, n, seed);
        let modal = hist.iter().max_by_key(|&(_, c)| c).map_or(0, |(v, _)| v);
        let max = hist.iter().last().map_or(0, |(v, _)| v);
        let pct_high = 100.0 * hist.fraction_at_least(2 * dim as u64);
        t.row(vec![
            dim.to_string(),
            n.to_string(),
            modal.to_string(),
            max.to_string(),
            format!("{pct_high:.1}"),
        ]);
    }
    t
}

/// The full histogram at one dimension (the paper's default, 8).
pub fn histogram_table(dim: u8, full_occupancy: bool, seed: u64) -> Table {
    let space = CycloidSpace::new(dim);
    let n = if full_occupancy {
        space.ring_size() as usize
    } else {
        (space.ring_size() as usize) / 2
    };
    let hist = census(dim, n, seed);
    let mut t = Table::new(
        &format!("Fig. 6 (detail) — indegree histogram at dimension {dim}"),
        &["indegree", "nodes"],
    );
    for (v, c) in hist.iter() {
        t.row(vec![v.to_string(), c.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_occupancy_matches_paper_structure() {
        // Fully populated dim-6 Cycloid: low nodes at indegree 5, heads
        // at 2d + 2 = 14, heads are 1/d of the network.
        let hist = census(6, 6 * 64, 1);
        let modal = hist.iter().max_by_key(|&(_, c)| c).unwrap().0;
        assert_eq!(modal, 5, "low-indegree mode");
        let max = hist.iter().last().unwrap().0;
        assert_eq!(max, 2 * 6 + 2, "head indegree");
        let frac = hist.fraction_at_least(12);
        assert!((frac - 1.0 / 6.0).abs() < 0.02, "head fraction {frac}");
    }

    #[test]
    fn head_indegree_tracks_dimension() {
        for dim in [5u8, 7] {
            let n = dim as usize * (1usize << dim);
            let hist = census(dim, n, 2);
            let max = hist.iter().last().unwrap().0;
            assert_eq!(max, 2 * dim as u64 + 2, "dim {dim}");
        }
    }

    #[test]
    fn sparse_census_still_bimodalish() {
        let hist = census(6, 200, 3);
        assert_eq!(hist.total(), 200);
        let max = hist.iter().last().unwrap().0;
        assert!(max >= 8, "some nodes should be high-indegree, max {max}");
    }

    #[test]
    fn tables_have_expected_shape() {
        let t = summary_table(&[4, 5], true, 4);
        assert_eq!(t.rows.len(), 2);
        let h = histogram_table(4, true, 4);
        assert!(h.rows.len() >= 2);
    }
}
