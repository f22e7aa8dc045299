//! Protocol descriptions: which table policy, adaptation, and
//! forwarding policy a run uses.

use ert_core::{ForwardPolicy, SlotIndex};

/// The slots of a Cycloid node's (possibly elastic) routing table.
///
/// `Cubical` and `Cyclic` are the negotiated, capacity-accounted slots
/// whose regions Section 3.2 defines; the ring slots are structural
/// (refreshed from the membership view like a successor list) but
/// `RingSucc`/`RingPred` may also receive *elastic* members through
/// indegree expansion, following the paper's note that nodes probe their
/// ring neighbors too (proof of Theorem 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycloidSlot {
    /// Descending slot flipping cubical bit `k`.
    Cubical,
    /// Descending slot preserving bits `≥ k`.
    Cyclic,
    /// Forward ring (successor-list) candidates.
    RingSucc,
    /// Backward ring (predecessor-list) candidates.
    RingPred,
}

/// The four slots at the four inline indices of an `ElasticTable`,
/// rotated as [`SlotIndex`] asks: the greatest, `RingPred`, at 0.
impl SlotIndex for CycloidSlot {
    #[inline]
    fn index(self) -> usize {
        (self as usize + 1) & 3
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        match index & 3 {
            1 => CycloidSlot::Cubical,
            2 => CycloidSlot::Cyclic,
            3 => CycloidSlot::RingSucc,
            _ => CycloidSlot::RingPred,
        }
    }
}

/// How a joining node fills the `Cubical`/`Cyclic` slots of its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TablePolicy {
    /// One neighbor per slot, the region member closest to the classic
    /// Cycloid target (plain Cycloid; used by Base and VS).
    SingleClosest,
    /// One neighbor per slot, preferring the highest-capacity member
    /// whose static indegree bound has room, ties broken by physical
    /// proximity (the NS baseline, after Castro et al.).
    SingleHighestCapacity,
    /// The ERT policy: a random member with spare indegree, followed by
    /// indegree expansion toward `β·d^∞` (Algorithms 1–2).
    Elastic,
}

/// Sizing of the virtual-server layer (the VS baseline, after
/// Godfrey & Stoica).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualServerConfig {
    /// Mean virtual servers per unit of normalized capacity. The
    /// classic choice is `Θ(log n)`; `log2(n)/2` keeps the virtual
    /// overlay ~5× the physical one at the paper's n = 2048.
    pub virtuals_per_capacity: f64,
    /// Hard cap on one host's virtual servers.
    pub max_per_host: u32,
}

impl VirtualServerConfig {
    /// The classic `Θ(log n)`-flavored sizing for an `n`-host network.
    pub fn for_network_size(n: usize) -> Self {
        let log2n = (n.max(2) as f64).log2();
        VirtualServerConfig {
            virtuals_per_capacity: log2n / 2.0,
            max_per_host: 16 * log2n as u32,
        }
    }

    /// Number of virtual servers for a host of normalized capacity `c`,
    /// at least 1.
    pub fn virtuals_for(&self, normalized_capacity: f64) -> u32 {
        ((normalized_capacity * self.virtuals_per_capacity).round() as u32)
            .clamp(1, self.max_per_host)
    }
}

/// A complete protocol description: the paper's Base/NS/VS baselines and
/// the ERT/A, ERT/F, ERT/AF variants are all values of this type.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Display name used in reports ("Base", "ERT/AF", ...).
    pub name: String,
    /// Table construction policy.
    pub table: TablePolicy,
    /// Whether periodic indegree adaptation runs (the "A" in ERT/A).
    pub adaptation: bool,
    /// Forwarding policy (the "F" in ERT/F is the two-choice policy).
    pub forwarding: ForwardPolicy,
    /// `Some` turns the overlay into capacity-proportional virtual
    /// servers (the VS baseline).
    pub virtual_servers: Option<VirtualServerConfig>,
    /// Item-movement load balancing (the related-work family of
    /// Bharambe et al.): each period, lightly loaded nodes leave and
    /// rejoin to split the intervals of heavily loaded ones.
    pub item_movement: bool,
}

impl ProtocolSpec {
    /// ERT with both adaptation and topology-aware two-choice
    /// forwarding (ERT/AF).
    pub fn ert_af() -> Self {
        ProtocolSpec {
            name: "ERT/AF".into(),
            table: TablePolicy::Elastic,
            adaptation: true,
            forwarding: ForwardPolicy::TwoChoice {
                topology_aware: true,
                use_memory: true,
            },
            virtual_servers: None,
            item_movement: false,
        }
    }

    /// ERT with adaptation only; forwarding picks a random candidate
    /// (ERT/A).
    pub fn ert_a() -> Self {
        ProtocolSpec {
            name: "ERT/A".into(),
            table: TablePolicy::Elastic,
            adaptation: false,
            forwarding: ForwardPolicy::RandomWalk,
            virtual_servers: None,
            item_movement: false,
        }
        .with_adaptation(true)
    }

    /// ERT with forwarding only, no adaptation (ERT/F).
    pub fn ert_f() -> Self {
        ProtocolSpec {
            name: "ERT/F".into(),
            table: TablePolicy::Elastic,
            adaptation: false,
            forwarding: ForwardPolicy::TwoChoice {
                topology_aware: true,
                use_memory: true,
            },
            virtual_servers: None,
            item_movement: false,
        }
    }

    /// Toggles adaptation, keeping everything else.
    #[must_use]
    pub fn with_adaptation(mut self, on: bool) -> Self {
        self.adaptation = on;
        self
    }

    /// Renames the spec (for ablation reports).
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycloid_slots_sit_at_the_four_inline_indices_in_rotated_order() {
        let slots = [
            CycloidSlot::Cubical,
            CycloidSlot::Cyclic,
            CycloidSlot::RingSucc,
            CycloidSlot::RingPred,
        ];
        let indices: Vec<usize> = slots.iter().map(|s| s.index()).collect();
        assert_eq!(indices, [1, 2, 3, 0]);
        for s in slots {
            assert_eq!(CycloidSlot::from_index(s.index()), s);
        }
    }

    #[test]
    fn ert_variants_differ_in_the_right_axes() {
        let af = ProtocolSpec::ert_af();
        let a = ProtocolSpec::ert_a();
        let f = ProtocolSpec::ert_f();
        assert!(af.adaptation && a.adaptation && !f.adaptation);
        assert!(matches!(af.forwarding, ForwardPolicy::TwoChoice { .. }));
        assert!(matches!(a.forwarding, ForwardPolicy::RandomWalk));
        assert!(matches!(f.forwarding, ForwardPolicy::TwoChoice { .. }));
        for spec in [&af, &a, &f] {
            assert_eq!(spec.table, TablePolicy::Elastic);
            assert!(spec.virtual_servers.is_none());
        }
    }

    #[test]
    fn virtual_server_sizing() {
        let vs = VirtualServerConfig::for_network_size(2048);
        assert!((vs.virtuals_per_capacity - 5.5).abs() < 1e-9);
        assert_eq!(vs.virtuals_for(1.0), 6); // round(5.5)
        assert_eq!(vs.virtuals_for(0.01), 1); // floor clamped up
        assert!(vs.virtuals_for(1000.0) <= vs.max_per_host);
    }

    #[test]
    fn named_and_toggles() {
        let s = ProtocolSpec::ert_af()
            .with_adaptation(false)
            .named("ablation");
        assert_eq!(s.name, "ablation");
        assert!(!s.adaptation);
    }
}
