//! Per-host and per-overlay-node simulation state.

use std::collections::VecDeque;

use ert_core::ElasticTable;
use ert_overlay::{Coord, CycloidId, InlinkCursor};

use crate::spec::CycloidSlot;

/// A physical machine: the unit that owns capacity, a query queue, and
/// the congestion metrics. With virtual servers one host backs several
/// overlay nodes; otherwise the mapping is 1:1.
#[derive(Debug, Clone)]
pub struct Host {
    /// Raw capacity as sampled (queries per interval, e.g. bounded
    /// Pareto 500–50000).
    pub raw_capacity: f64,
    /// Capacity normalized to mean 1 across the initial population.
    pub norm_capacity: f64,
    /// The node's own (possibly erroneous) estimate of `norm_capacity`.
    pub est_capacity: f64,
    /// Queries the host claims it can hold at a time: `⌊0.5 + α·ĉ⌋`
    /// (Section 5). This is the *advertised* value — it feeds candidate
    /// congestion comparisons, indegree caps, and adaptation decisions,
    /// and capacity liars (`ert_faults::FaultKind::CapacityLiar`)
    /// inflate it together
    /// with `est_capacity`.
    pub capacity_eval: u32,
    /// The honest queue-pressure threshold that service speed and the
    /// congestion metrics are measured against. Coincides with
    /// `capacity_eval` except on an active capacity liar, whose
    /// advertisement diverges from the physics.
    pub capacity_true: u32,
    /// Position in the synthetic physical network.
    pub coord: Coord,
    /// Queries waiting for service (indices into the run's query table).
    pub queue: VecDeque<usize>,
    /// The query currently in service, if any.
    pub in_service: Option<usize>,
    /// Whether the host is still in the system.
    pub alive: bool,
    /// Queries received during the current adaptation period.
    pub period_load: u64,
    /// Queries received over the whole run (the share metric's `l_i`).
    pub total_received: u64,
    /// Largest congestion ratio `l/c` observed on this host.
    pub max_congestion: f64,
    /// Accumulated busy (serving) time in microseconds.
    pub busy_micros: u64,
    /// Overlay nodes this host backs.
    pub nodes: Vec<usize>,
}

impl Host {
    /// Creates an idle host.
    pub fn new(
        raw_capacity: f64,
        norm_capacity: f64,
        est_capacity: f64,
        capacity_eval: u32,
        coord: Coord,
    ) -> Self {
        Host {
            raw_capacity,
            norm_capacity,
            est_capacity,
            capacity_eval: capacity_eval.max(1),
            capacity_true: capacity_eval.max(1),
            coord,
            queue: VecDeque::new(),
            in_service: None,
            alive: true,
            period_load: 0,
            total_received: 0,
            max_congestion: 0.0,
            busy_micros: 0,
            nodes: Vec::new(),
        }
    }

    /// Queries currently held (queued plus in service) — the paper's
    /// notion of instantaneous load.
    pub fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// Whether the host is overloaded: load exceeds what it can
    /// *actually* hold — a liar's inflated advertisement does not make
    /// its queue drain any faster.
    pub fn is_heavy(&self) -> bool {
        self.load() > self.capacity_true as usize
    }

    /// Instantaneous congestion ratio `l/c` against the honest
    /// capacity.
    pub fn congestion(&self) -> f64 {
        self.load() as f64 / self.capacity_true as f64
    }

    /// Records the current congestion into the running maximum.
    pub fn note_congestion(&mut self) {
        let g = self.congestion();
        if g > self.max_congestion {
            self.max_congestion = g;
        }
    }
}

/// One overlay (virtual) node: an ID plus its routing table.
#[derive(Debug, Clone)]
pub struct OverlayNode {
    /// The node's Cycloid ID.
    pub id: CycloidId,
    /// Index of the backing host.
    pub host: usize,
    /// The (elastic) routing table.
    pub table: ElasticTable<CycloidSlot, CycloidId>,
    /// Dynamic maximum indegree `d^∞`: written only by
    /// `Topology::apply`, which keeps the spare index in step.
    pub(crate) d_max: u32,
    /// Whether the node is still in the overlay: cleared only by
    /// `Topology::apply`, which clears the node's ID index entry with it
    /// (see `Topology::on_id_index`).
    pub alive: bool,
    /// Whether no node had joined on the ID before this one: written
    /// only by `Topology::apply` (see `Topology::on_fresh`).
    pub(crate) fresh: bool,
    /// Where Algorithm 1's scan of this node's inlink candidates
    /// stands (see `Topology::grow_inlinks`).
    pub(crate) scan: InlinkCursor,
    /// The membership epoch `scan` was taken at; at any other epoch the
    /// position means nothing and the scan starts over.
    pub(crate) scan_epoch: u64,
    /// The membership epoch the two ring slots were last rebuilt at, or
    /// [`UNSTAMPED`]: while it is the current one a refresh would change
    /// nothing (see `Topology::refresh_ring_slots`).
    pub(crate) ring_epoch: u64,
}

/// A `ring_epoch` no membership epoch equals: the next refresh rebuilds.
pub(crate) const UNSTAMPED: u64 = u64::MAX;

impl OverlayNode {
    /// Creates a node with an empty table.
    pub fn new(id: CycloidId, host: usize, d_max: u32) -> Self {
        OverlayNode {
            id,
            host,
            table: ElasticTable::new(),
            d_max: d_max.max(1),
            alive: true,
            fresh: false,
            scan: InlinkCursor::Start,
            scan_epoch: 0,
            ring_epoch: UNSTAMPED,
        }
    }

    /// Dynamic maximum indegree `d^∞` (drifts under adaptation).
    pub fn d_max(&self) -> u32 {
        self.d_max
    }

    /// Spare indegree `d^∞ − d` (negative when adaptation shrank `d^∞`
    /// below the current indegree).
    pub fn spare_indegree(&self) -> i64 {
        self.d_max as i64 - self.table.indegree() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cap: u32) -> Host {
        Host::new(1000.0, 1.0, 1.0, cap, Coord::new(0.0, 0.0))
    }

    #[test]
    fn load_counts_service_slot() {
        let mut h = host(2);
        assert_eq!(h.load(), 0);
        h.queue.push_back(0);
        h.in_service = Some(1);
        assert_eq!(h.load(), 2);
        assert!(!h.is_heavy());
        h.queue.push_back(2);
        assert!(h.is_heavy());
        assert_eq!(h.congestion(), 1.5);
    }

    #[test]
    fn congestion_watermark() {
        let mut h = host(1);
        h.queue.push_back(0);
        h.queue.push_back(1);
        h.note_congestion();
        h.queue.clear();
        h.note_congestion();
        assert_eq!(h.max_congestion, 2.0);
    }

    #[test]
    fn capacity_clamped_to_one() {
        let h = host(0);
        assert_eq!(h.capacity_eval, 1);
    }

    #[test]
    fn a_node_and_its_table_stay_within_their_byte_budgets() {
        // The hop path reads `OverlayNode`. Its table holds four
        // neighbor-list headers inline and a byte of written bits, then
        // the spill, backward-finger and memory vectors:
        // 4 × 24 + 1 + 3 × 24 bytes, padded to 176.
        // The node adds its ID, host, d_max, liveness, freshness, scan
        // cursor and two epoch stamps. Growing either is a decision,
        // made here.
        use std::mem::size_of;
        assert!(size_of::<ElasticTable<CycloidSlot, CycloidId>>() <= 176);
        assert!(size_of::<OverlayNode>() <= 224);
    }

    #[test]
    fn spare_indegree_can_go_negative() {
        let space = ert_overlay::CycloidSpace::new(3);
        let mut n = OverlayNode::new(space.id(0, 0), 0, 2);
        assert_eq!(n.spare_indegree(), 2);
        for a in 1..=3 {
            n.table.add_backward(space.id(1, a));
        }
        assert_eq!(n.spare_indegree(), -1);
    }
}
