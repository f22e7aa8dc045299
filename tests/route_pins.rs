//! Byte pins for the shared `ErtNode`'s decisions. First captured at
//! the commit *before* Algorithm 1's scan became resumable and
//! Algorithm 4's probe lazy, which both had to leave every decision as
//! it was.
//!
//! They were re-captured once since, when the table build began drawing
//! an elastic slot's pick before probing. That draw picks from the same
//! eligible members with the same uniform distribution, but it reads the
//! build's RNG stream differently, so which member a build picks moved,
//! and with it everything downstream. Each pin file's `#` header says
//! so.
//!
//! Each `crates/minidht/tests/pins/route_*.txt` holds the complete
//! [`RouteTrace`] of one run (sources, hops, completions, drops,
//! adaptation outcomes — one section per line) followed by one
//! `table_fingerprints` entry per line. The Chord files start with the
//! wire cluster's `WireReport::canonical_string`, RPC counters
//! included. The schedules run hot enough that dozens of nodes shed and
//! later grow again, so the pins cover a cleared and re-walked resume
//! position, not only first-time expansion.

use ert_faults::{FaultPlan, RetryPolicy};
use ert_minidht::{
    ChordGeometry, Geometry, MiniDht, MiniDhtConfig, MiniProtocol, PastryGeometry, RouteTrace,
};
use ert_node::WireCluster;
use ert_sim::{SimRng, SimTime};
use ert_testkit::diff::wire::{hotspot_schedule, uniform_schedule};
use ert_testkit::strategies::ramp_capacities;

const BITS: u8 = 10;
const N: usize = 64;
const SEED: u64 = 21;

fn render(trace: &RouteTrace, tables: &[String]) -> String {
    fn line<T>(name: &str, items: &[T], f: impl Fn(&T) -> String) -> String {
        let body: Vec<String> = items.iter().map(f).collect();
        format!("{name} {}\n", body.join(" "))
    }
    let mut out = line("sources", &trace.sources, u64::to_string);
    out += &line("hops", &trace.hops, |h| {
        format!("{}:{}>{}", h.query, h.from, h.to)
    });
    out += &line("completions", &trace.completions, |c| {
        format!("{}:{}@{}", c.query, c.hops, c.at_micros)
    });
    out += &line("drops", &trace.drops, u64::to_string);
    out += &line("adapts", &trace.adapts, |a| {
        format!("{}:{}:{}:{}", a.round, a.node, a.delta, a.d_max)
    });
    for t in tables {
        out += t;
        out.push('\n');
    }
    out
}

/// A pin file without its `#` header lines.
fn body(pin: &str) -> &str {
    let mut rest = pin;
    while rest.starts_with('#') {
        rest = rest.split_once('\n').map_or("", |(_, after)| after);
    }
    rest
}

fn assert_pinned(name: &str, got: &str, pin: &str) {
    let want = body(pin);
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    let (g, w) = (
        got.lines().nth(line).unwrap_or(""),
        want.lines().nth(line).unwrap_or(""),
    );
    let token = g
        .split(' ')
        .zip(w.split(' '))
        .position(|(a, b)| a != b)
        .unwrap_or(0);
    panic!(
        "{name}: diverges from the pinned bytes at line {line}, token {token}\n  got:  {:?}\n  want: {:?}",
        g.split(' ').nth(token),
        w.split(' ').nth(token)
    );
}

/// Both hosts of the shared node on one Chord+ERT scenario: the
/// simulator with per-node decision streams, then the wire cluster.
fn check_chord(name: &str, schedule: &[(SimTime, u64)], pin: &str) {
    let (canonical, want) = body(pin).split_once('\n').expect("canonical line first");
    let cfg = MiniDhtConfig::defaults(BITS, SEED);
    let geometry = ChordGeometry::populate(BITS, N, &mut SimRng::seed_from(SEED));
    let members = geometry.members();
    let caps = ramp_capacities(members.len());
    let protocol = MiniProtocol::ElasticErt;

    let mut sim = MiniDht::new(cfg, geometry, &caps, protocol).expect("sim construction");
    sim.enable_trace();
    sim.use_node_decision_rngs();
    sim.run_schedule(schedule);
    let trace = sim.take_trace().unwrap_or_default();
    let sheds = trace.adapts.iter().filter(|a| a.delta < 0).count();
    assert!(sheds >= 20, "{name}: only {sheds} sheds, too few to pin");
    assert_pinned(
        &format!("{name} (MiniDht)"),
        &render(&trace, &sim.table_fingerprints()),
        want,
    );

    let mut wire = WireCluster::new(
        cfg,
        BITS,
        &members,
        &caps,
        protocol,
        &FaultPlan::new(SEED),
        RetryPolicy::default(),
        None,
    )
    .expect("wire cluster construction");
    wire.enable_trace();
    let report = wire.run_schedule(schedule).expect("wire run");
    let trace = wire.take_trace().unwrap_or_default();
    assert_pinned(
        &format!("{name} (WireCluster)"),
        &render(&trace, &wire.table_fingerprints()),
        want,
    );
    assert_eq!(
        report.canonical_string(),
        canonical,
        "{name}: the wire report"
    );
}

#[test]
fn chord_ert_uniform_matches_parent_bytes() {
    check_chord(
        "route_chord_ert_uniform",
        &uniform_schedule(BITS, 500, 800.0, SEED ^ 0x5eed),
        include_str!("../crates/minidht/tests/pins/route_chord_ert_uniform.txt"),
    );
}

#[test]
fn chord_ert_hotspot_matches_parent_bytes() {
    check_chord(
        "route_chord_ert_hotspot",
        &hotspot_schedule(BITS, 500, 800.0, SEED ^ 0x40715),
        include_str!("../crates/minidht/tests/pins/route_chord_ert_hotspot.txt"),
    );
}

/// Pastry is outside the wire node's reach (it speaks Chord only): the
/// simulator alone, on the shared platform stream.
#[test]
fn pastry_ert_matches_parent_bytes() {
    let seed = SEED + 1;
    let geometry = PastryGeometry::populate(6, 2, N, &mut SimRng::seed_from(seed));
    let mut sim = MiniDht::new(
        MiniDhtConfig::defaults(12, seed),
        geometry,
        &ramp_capacities(N),
        MiniProtocol::ElasticErt,
    )
    .expect("sim construction");
    sim.enable_trace();
    sim.run_schedule(&uniform_schedule(12, 500, 1000.0, seed));
    let trace = sim.take_trace().unwrap_or_default();
    let sheds = trace.adapts.iter().filter(|a| a.delta < 0).count();
    assert!(sheds >= 10, "only {sheds} sheds, too few to pin");
    assert_pinned(
        "route_pastry_ert",
        &render(&trace, &sim.table_fingerprints()),
        include_str!("../crates/minidht/tests/pins/route_pastry_ert.txt"),
    );
}
