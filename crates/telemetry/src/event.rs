//! Typed structured events emitted by the simulator.
//!
//! Node and key identifiers are linearized ring positions (`u64`, see
//! `CycloidSpace::lin`) so the event stream is overlay-agnostic and
//! serializes to plain integers. The `Display` impl renders the compact
//! one-line form the trace ring is rendered in
//! (`q42 forward 13 -> 77`); the `Serialize` impl produces the typed
//! JSON form written to sinks (`{"LookupHop":{"q":42,...}}`).

use std::fmt;

use serde::Serialize;

/// One structured simulator event.
///
/// Grouped by lifecycle: query events carry the query index `q`;
/// link/topology events carry linearized node ids.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TelemetryEvent {
    /// A lookup was injected at `source` for `key`.
    LookupStart {
        /// Query index within the run.
        q: u64,
        /// Linearized id of the source node.
        source: u64,
        /// Linearized target key.
        key: u64,
    },
    /// A lookup was forwarded one hop.
    LookupHop {
        /// Query index.
        q: u64,
        /// Linearized id of the forwarding node.
        from: u64,
        /// Linearized id of the chosen next hop.
        to: u64,
    },
    /// A forwarding step hit a departed node and paid a timeout.
    LookupTimeout {
        /// Query index.
        q: u64,
        /// Linearized id of the node whose link was stale.
        at: u64,
        /// Linearized id of the dead peer the link pointed to.
        dead: u64,
    },
    /// A query in flight (or queued) was handed to the ring successor
    /// of a departed node.
    LookupHandoff {
        /// Query index.
        q: u64,
        /// Linearized id of the successor taking over.
        successor: u64,
    },
    /// A lookup reached its owner (and, in anonymity mode, returned).
    LookupComplete {
        /// Query index.
        q: u64,
        /// Hops taken.
        hops: u32,
        /// Heavy nodes encountered along the path.
        heavy: u32,
    },
    /// A lookup was dropped (hop budget exhausted or overlay emptied).
    LookupDropped {
        /// Query index.
        q: u64,
        /// Hops taken before the drop.
        hops: u32,
    },
    /// Adaptation shed inlinks from an overloaded node.
    LinkShed {
        /// Linearized id of the shedding node.
        node: u64,
        /// Inlinks removed.
        count: u32,
    },
    /// Adaptation grew inlinks toward an underloaded node.
    LinkGrown {
        /// Linearized id of the growing node.
        node: u64,
        /// Inlinks gained.
        count: u32,
    },
    /// A stale outlink to a departed peer was purged after a timeout.
    LinkPurged {
        /// Linearized id of the purging node.
        node: u64,
        /// Linearized id of the departed peer.
        peer: u64,
    },
    /// A host joined the overlay mid-run.
    NodeJoined {
        /// Linearized id of the new node.
        node: u64,
    },
    /// A host departed the overlay mid-run.
    NodeDeparted {
        /// Host index of the departed host.
        host: u64,
        /// Overlay nodes it took down with it.
        nodes: u32,
    },
    /// An item-movement round relocated a light node next to a heavy
    /// one.
    NodeRelocated {
        /// Linearized id of the node's old position.
        from: u64,
        /// Linearized id of the new position.
        to: u64,
    },
    /// One periodic adaptation tick ran.
    AdaptTick {
        /// Tick ordinal (1-based).
        round: u64,
    },
    /// A scheduled environment fault of the plan fired (see
    /// `ert-faults`).
    FaultInjected {
        /// Index of the event within the (canonically ordered) plan.
        seq: u64,
        /// The fault's kind tag (`Crash`, `Degrade`, `DropMessages`,
        /// `Partition`, `Heal`).
        fault: String,
    },
    /// A forward attempt was lost to a fault (message drop or partition
    /// block); the sender will retry or fail the lookup.
    MessageLost {
        /// Query index.
        q: u64,
        /// Linearized id of the sending node.
        from: u64,
        /// Linearized id of the unreachable target.
        to: u64,
    },
    /// A lost forward is being retried after deterministic backoff.
    LookupRetry {
        /// Query index.
        q: u64,
        /// Failed attempts so far at this hop.
        attempt: u32,
    },
    /// A lookup failed: lost to a crash, or its retry budget ran out.
    LookupFailed {
        /// Query index.
        q: u64,
        /// Hops taken before the failure.
        hops: u32,
    },
    /// A scheduled adversary kind of the plan fired (see `ert-faults`).
    AdversaryActivated {
        /// Index of the event within the (canonically ordered) plan.
        seq: u64,
        /// The actor-class tag (`CapacityLiar`, `SybilSwarm`,
        /// `QueryFlood`, `RoutingDefector`, `Restore`).
        actor: String,
    },
    /// A host began misreporting its capacity estimate.
    CapacityMisreport {
        /// Host index of the liar.
        host: u64,
        /// Multiplicative factor applied to the honest estimate.
        factor: f64,
    },
    /// A defecting node inverted the two-choice rule and forwarded to
    /// the most-loaded reachable candidate.
    DefectedForward {
        /// Query index.
        q: u64,
        /// Linearized id of the defecting node.
        from: u64,
        /// Linearized id of the (deliberately bad) next hop.
        to: u64,
    },
    /// A query-flood flash crowd was injected onto one key.
    FloodBurst {
        /// Linearized target key under flood.
        key: u64,
        /// Number of flood lookups injected.
        count: u32,
    },
    /// One causal span in a lookup's trace tree: a single completed
    /// service at one node, covering the hop's queueing
    /// (`enqueued → service_start`) and service
    /// (`service_start → service_end`) phases. Span identifiers follow
    /// the deterministic `ert-obs` scheme: `span = (q << 16) | (hop+1)`
    /// and `parent` is the previous hop's span (or the lookup root
    /// `q << 16` at hop 0), so trees reconstruct offline from the
    /// event stream alone. Re-deliveries of the same hop index (after
    /// handoffs or retries) emit sibling spans under the same parent.
    HopSpan {
        /// Query index.
        q: u64,
        /// Hop index at the time of service (0 = source node).
        hop: u32,
        /// Linearized id of the serving node.
        node: u64,
        /// Deterministic span id (`ert_obs::span::span_id(q, hop)`).
        span: u64,
        /// Parent span id (`ert_obs::span::parent_id(q, hop)`).
        parent: u64,
        /// Sim time (µs) the query entered this node's queue.
        enqueued: u64,
        /// Sim time (µs) service began.
        service_start: u64,
        /// Sim time (µs) service completed.
        service_end: u64,
    },
}

impl TelemetryEvent {
    /// The stable kind tag (the JSON enum tag) — handy for filtering.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::LookupStart { .. } => "LookupStart",
            TelemetryEvent::LookupHop { .. } => "LookupHop",
            TelemetryEvent::LookupTimeout { .. } => "LookupTimeout",
            TelemetryEvent::LookupHandoff { .. } => "LookupHandoff",
            TelemetryEvent::LookupComplete { .. } => "LookupComplete",
            TelemetryEvent::LookupDropped { .. } => "LookupDropped",
            TelemetryEvent::LinkShed { .. } => "LinkShed",
            TelemetryEvent::LinkGrown { .. } => "LinkGrown",
            TelemetryEvent::LinkPurged { .. } => "LinkPurged",
            TelemetryEvent::NodeJoined { .. } => "NodeJoined",
            TelemetryEvent::NodeDeparted { .. } => "NodeDeparted",
            TelemetryEvent::NodeRelocated { .. } => "NodeRelocated",
            TelemetryEvent::AdaptTick { .. } => "AdaptTick",
            TelemetryEvent::FaultInjected { .. } => "FaultInjected",
            TelemetryEvent::MessageLost { .. } => "MessageLost",
            TelemetryEvent::LookupRetry { .. } => "LookupRetry",
            TelemetryEvent::LookupFailed { .. } => "LookupFailed",
            TelemetryEvent::AdversaryActivated { .. } => "AdversaryActivated",
            TelemetryEvent::CapacityMisreport { .. } => "CapacityMisreport",
            TelemetryEvent::DefectedForward { .. } => "DefectedForward",
            TelemetryEvent::FloodBurst { .. } => "FloodBurst",
            TelemetryEvent::HopSpan { .. } => "HopSpan",
        }
    }
}

impl fmt::Display for TelemetryEvent {
    /// The compact trace-ring line. Query events keep the historical
    /// `q{index} <verb> ...` shape so trace filters written against the
    /// old free-form strings keep working.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryEvent::LookupStart { q, source, key } => {
                write!(f, "q{q} inject at {source} key {key}")
            }
            TelemetryEvent::LookupHop { q, from, to } => {
                write!(f, "q{q} forward {from} -> {to}")
            }
            TelemetryEvent::LookupTimeout { q, at, dead } => {
                write!(f, "q{q} timeout at {at} dead {dead}")
            }
            TelemetryEvent::LookupHandoff { q, successor } => {
                write!(f, "q{q} handoff to {successor}")
            }
            TelemetryEvent::LookupComplete { q, hops, heavy } => {
                write!(f, "q{q} complete hops={hops} heavy={heavy}")
            }
            TelemetryEvent::LookupDropped { q, hops } => {
                write!(f, "q{q} dropped hops={hops}")
            }
            TelemetryEvent::LinkShed { node, count } => {
                write!(f, "node {node} shed {count} inlinks")
            }
            TelemetryEvent::LinkGrown { node, count } => {
                write!(f, "node {node} grew {count} inlinks")
            }
            TelemetryEvent::LinkPurged { node, peer } => {
                write!(f, "node {node} purged dead link {peer}")
            }
            TelemetryEvent::NodeJoined { node } => write!(f, "node {node} joined"),
            TelemetryEvent::NodeDeparted { host, nodes } => {
                write!(f, "host {host} departed ({nodes} nodes)")
            }
            TelemetryEvent::NodeRelocated { from, to } => {
                write!(f, "node {from} relocated to {to}")
            }
            TelemetryEvent::AdaptTick { round } => write!(f, "adapt tick {round}"),
            TelemetryEvent::FaultInjected { seq, fault } => {
                write!(f, "fault {seq} injected: {fault}")
            }
            TelemetryEvent::MessageLost { q, from, to } => {
                write!(f, "q{q} lost {from} -> {to}")
            }
            TelemetryEvent::LookupRetry { q, attempt } => {
                write!(f, "q{q} retry attempt={attempt}")
            }
            TelemetryEvent::LookupFailed { q, hops } => {
                write!(f, "q{q} failed hops={hops}")
            }
            TelemetryEvent::AdversaryActivated { seq, actor } => {
                write!(f, "adversary {seq} activated: {actor}")
            }
            TelemetryEvent::CapacityMisreport { host, factor } => {
                write!(f, "host {host} misreports capacity x{factor}")
            }
            TelemetryEvent::DefectedForward { q, from, to } => {
                write!(f, "q{q} defected {from} -> {to}")
            }
            TelemetryEvent::FloodBurst { key, count } => {
                write!(f, "flood burst key {key} x{count}")
            }
            TelemetryEvent::HopSpan {
                q,
                hop,
                node,
                enqueued,
                service_end,
                ..
            } => {
                write!(
                    f,
                    "q{q} span hop={hop} node={node} {enqueued}..{service_end}"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_trace_shapes() {
        let e = TelemetryEvent::LookupStart {
            q: 42,
            source: 7,
            key: 9,
        };
        assert_eq!(e.to_string(), "q42 inject at 7 key 9");
        let e = TelemetryEvent::LookupHop {
            q: 42,
            from: 7,
            to: 8,
        };
        assert_eq!(e.to_string(), "q42 forward 7 -> 8");
        let e = TelemetryEvent::LookupComplete {
            q: 42,
            hops: 5,
            heavy: 1,
        };
        assert_eq!(e.to_string(), "q42 complete hops=5 heavy=1");
    }

    #[test]
    fn serializes_externally_tagged() {
        let e = TelemetryEvent::LookupHop {
            q: 1,
            from: 2,
            to: 3,
        };
        assert_eq!(
            serde::json::to_string(&e),
            r#"{"LookupHop":{"q":1,"from":2,"to":3}}"#
        );
    }

    #[test]
    fn kind_matches_serialized_tag() {
        let e = TelemetryEvent::AdaptTick { round: 3 };
        assert!(serde::json::to_string(&e).starts_with(&format!("{{\"{}\"", e.kind())));
    }

    #[test]
    fn fault_events_render_and_serialize() {
        let e = TelemetryEvent::FaultInjected {
            seq: 2,
            fault: "Crash".into(),
        };
        assert_eq!(e.to_string(), "fault 2 injected: Crash");
        assert_eq!(e.kind(), "FaultInjected");
        assert_eq!(
            serde::json::to_string(&e),
            r#"{"FaultInjected":{"seq":2,"fault":"Crash"}}"#
        );
        let e = TelemetryEvent::MessageLost {
            q: 4,
            from: 1,
            to: 9,
        };
        assert_eq!(e.to_string(), "q4 lost 1 -> 9");
        let e = TelemetryEvent::LookupRetry { q: 4, attempt: 2 };
        assert_eq!(e.to_string(), "q4 retry attempt=2");
        let e = TelemetryEvent::LookupFailed { q: 4, hops: 7 };
        assert_eq!(e.to_string(), "q4 failed hops=7");
        assert_eq!(
            serde::json::to_string(&e),
            r#"{"LookupFailed":{"q":4,"hops":7}}"#
        );
    }

    #[test]
    fn adversary_events_render_and_serialize() {
        let e = TelemetryEvent::AdversaryActivated {
            seq: 1,
            actor: "CapacityLiar".into(),
        };
        assert_eq!(e.to_string(), "adversary 1 activated: CapacityLiar");
        assert_eq!(e.kind(), "AdversaryActivated");
        assert_eq!(
            serde::json::to_string(&e),
            r#"{"AdversaryActivated":{"seq":1,"actor":"CapacityLiar"}}"#
        );
        let e = TelemetryEvent::CapacityMisreport {
            host: 12,
            factor: 4.0,
        };
        assert_eq!(e.to_string(), "host 12 misreports capacity x4");
        assert_eq!(e.kind(), "CapacityMisreport");
        let e = TelemetryEvent::DefectedForward {
            q: 9,
            from: 3,
            to: 5,
        };
        assert_eq!(e.to_string(), "q9 defected 3 -> 5");
        assert_eq!(
            serde::json::to_string(&e),
            r#"{"DefectedForward":{"q":9,"from":3,"to":5}}"#
        );
        let e = TelemetryEvent::FloodBurst {
            key: 77,
            count: 500,
        };
        assert_eq!(e.to_string(), "flood burst key 77 x500");
        assert_eq!(e.kind(), "FloodBurst");
    }

    #[test]
    fn hop_span_renders_and_serializes() {
        let e = TelemetryEvent::HopSpan {
            q: 3,
            hop: 1,
            node: 12,
            span: (3 << 16) | 2,
            parent: (3 << 16) | 1,
            enqueued: 100,
            service_start: 150,
            service_end: 350,
        };
        assert_eq!(e.kind(), "HopSpan");
        assert_eq!(e.to_string(), "q3 span hop=1 node=12 100..350");
        assert_eq!(
            serde::json::to_string(&e),
            r#"{"HopSpan":{"q":3,"hop":1,"node":12,"span":196610,"parent":196609,"enqueued":100,"service_start":150,"service_end":350}}"#
        );
    }
}
