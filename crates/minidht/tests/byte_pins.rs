//! Byte pins for `MiniDht` in its default shared-stream mode.
//!
//! The wire oracle (`ert-testkit`'s `diff::wire`) only reaches Chord
//! with per-node decision streams; Pastry and the shared platform RNG
//! are outside it. These pins were captured from the tree *before* the
//! protocol steps moved into the shared `ErtNode`, so they check the
//! shared node against the hand-written `MiniDht` it replaced rather
//! than against itself. Each `pins/*.txt` holds the `MiniReport` JSON
//! on its first line and one `table_fingerprints` entry per line after,
//! below any `#` header lines, which say when and why a pin was last
//! re-captured. The two ERT pins were re-captured once, when the table
//! build began drawing an elastic slot's pick before probing; the
//! classic pin, whose build never probes, is still the original.

use ert_minidht::{ChordGeometry, Geometry, MiniDht, MiniDhtConfig, MiniProtocol, PastryGeometry};
use ert_sim::SimRng;

fn caps(n: usize) -> Vec<f64> {
    (0..n).map(|i| 500.0 + 400.0 * (i % 6) as f64).collect()
}

/// Runs long enough (≈ 4 s of simulated time against a 1 s adaptation
/// period) that the pins cover several Algorithm 3 rounds.
fn snapshot<G: Geometry>(cfg: MiniDhtConfig, geometry: G, protocol: MiniProtocol) -> String {
    let n = geometry.members().len();
    let mut net = MiniDht::new(cfg, geometry, &caps(n), protocol).expect("valid scenario");
    let report = net.run_poisson(400, 100.0);
    let mut out = serde::json::to_string(&report);
    for line in net.table_fingerprints() {
        out.push('\n');
        out.push_str(&line);
    }
    out.push('\n');
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
    panic!(
        "{name}: diverges from the pre-refactor bytes at line {line}\n  got:  {:?}\n  want: {:?}",
        got.lines().nth(line),
        want.lines().nth(line)
    );
}

#[test]
fn chord_ert_matches_pre_refactor_bytes() {
    let geometry = ChordGeometry::populate(10, 64, &mut SimRng::seed_from(11));
    let got = snapshot(
        MiniDhtConfig::defaults(10, 11),
        geometry,
        MiniProtocol::ElasticErt,
    );
    assert_pinned("chord_ert", &got, include_str!("pins/chord_ert.txt"));
}

#[test]
fn pastry_ert_matches_pre_refactor_bytes() {
    let geometry = PastryGeometry::populate(6, 2, 64, &mut SimRng::seed_from(12));
    let got = snapshot(
        MiniDhtConfig::defaults(12, 12),
        geometry,
        MiniProtocol::ElasticErt,
    );
    assert_pinned("pastry_ert", &got, include_str!("pins/pastry_ert.txt"));
}

#[test]
fn chord_classic_matches_pre_refactor_bytes() {
    let geometry = ChordGeometry::populate(10, 64, &mut SimRng::seed_from(13));
    let got = snapshot(
        MiniDhtConfig::defaults(10, 13),
        geometry,
        MiniProtocol::Classic,
    );
    assert_pinned(
        "chord_classic",
        &got,
        include_str!("pins/chord_classic.txt"),
    );
}
