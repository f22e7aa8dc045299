//! The allocation ratchet: heap allocations, and the bytes they ask
//! for, per lookup of each runtime's run, pinned as ceilings.
//!
//! Wall time on a shared machine is noisy; an allocation count is a
//! function of the seed and the build. Each runtime runs one world
//! twice, once with `SHORT` lookups and once with `LONG` (the shorter
//! schedule is a prefix of the longer), and the counts of the two runs
//! are differenced, so the build, the report and every other fixed
//! cost drop out and what is left is the marginal cost of a lookup:
//! its hops, its probes and answers, and its share of the adaptation
//! rounds the longer run holds.
//!
//! A change that lowers a count tightens its ceiling here in the same
//! commit; one that raises a count says why in CHANGES.md. Debug builds
//! run the invariant sanitizer and the filters' debug differentials,
//! which allocate too, so each profile has its own ceilings.
//!
//! The binary holds this one test, so nothing else allocates while a
//! run is counted. Run it with `--nocapture` to see the counts.

use ert_faults::{FaultPlan, RetryPolicy};
use ert_minidht::{ChordGeometry, Geometry, MiniDht, MiniDhtConfig, MiniProtocol, PastryGeometry};
use ert_network::{Lookup, Network, NetworkConfig, ProtocolSpec};
use ert_node::WireCluster;
use ert_overlay::CycloidSpace;
use ert_sim::{SimDuration, SimRng, SimTime};
use ert_workloads::{uniform_lookups, BoundedPareto};
use rand::Rng;

/// The counting allocator: the system allocator, plus a count of the
/// calls that hand out memory and of the bytes they ask for.
#[expect(
    clippy::disallowed_types,
    reason = "D10: a global allocator is process-global by definition; its counters are the one shared state this test binary needs"
)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Allocation calls and bytes asked for, since the process began.
    static COUNTS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

    struct Counting;

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    fn count(bytes: usize) {
        COUNTS[0].fetch_add(1, Relaxed);
        COUNTS[1].fetch_add(bytes as u64, Relaxed);
    }

    // SAFETY: every method forwards its arguments unchanged to the
    // system allocator, which upholds `GlobalAlloc`'s contract; counting
    // touches no memory the caller owns.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// `[allocations, bytes]` made while `f` ran.
    pub fn during(f: impl FnOnce()) -> [u64; 2] {
        let before = COUNTS.each_ref().map(|c| c.load(Relaxed));
        f();
        [0, 1].map(|i| COUNTS[i].load(Relaxed) - before[i])
    }
}

const N: usize = 256;
const SEED: u64 = 1;
const SHORT: usize = 250;
const LONG: usize = 500;

/// One runtime's world, run with the first `lookups` of its schedule;
/// only the run is counted.
type Runtime = fn(usize) -> [u64; 2];

fn capacities() -> Vec<f64> {
    let mut rng = SimRng::seed_from(SEED.wrapping_mul(0x9e37_79b9));
    BoundedPareto::paper_default().sample_n(N, &mut rng.fork("capacities"))
}

/// `lookups` uniform keys on the `2^bits` ring at `N` per second.
fn schedule(bits: u8, lookups: usize) -> Vec<(SimTime, u64)> {
    let mut rng = SimRng::seed_from(SEED).fork("lookups");
    let mut at = SimTime::ZERO;
    (0..lookups)
        .map(|_| {
            at += SimDuration::from_secs_f64(rng.exp_secs(N as f64));
            (at, rng.gen_range(0..1u64 << bits))
        })
        .collect()
}

fn network(protocol: ProtocolSpec, lookups: usize) -> [u64; 2] {
    let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(N), SEED);
    let mut net = Network::new(cfg, &capacities(), protocol).expect("valid world");
    let mut rng = SimRng::seed_from(SEED).fork("lookups");
    let lookups: Vec<Lookup> = uniform_lookups(lookups, N as f64, &mut rng);
    counting::during(|| {
        net.run(&lookups, &[]);
    })
}

fn network_ert_f(lookups: usize) -> [u64; 2] {
    network(ProtocolSpec::ert_f(), lookups)
}

fn network_ert_af(lookups: usize) -> [u64; 2] {
    network(ProtocolSpec::ert_af(), lookups)
}

fn minidht<G: Geometry>(geometry: G, scale_hint: u8, bits: u8, lookups: usize) -> [u64; 2] {
    let cfg = MiniDhtConfig::defaults(scale_hint, SEED);
    let mut dht =
        MiniDht::new(cfg, geometry, &capacities(), MiniProtocol::ElasticErt).expect("valid world");
    dht.use_node_decision_rngs();
    let schedule = schedule(bits, lookups);
    counting::during(|| {
        dht.run_schedule(&schedule);
    })
}

fn minidht_chord(lookups: usize) -> [u64; 2] {
    let geometry = ChordGeometry::populate(20, N, &mut SimRng::seed_from(SEED));
    minidht(geometry, 20, 20, lookups)
}

fn minidht_pastry(lookups: usize) -> [u64; 2] {
    let geometry = PastryGeometry::populate(6, 2, N, &mut SimRng::seed_from(SEED));
    minidht(geometry, 12, 12, lookups)
}

fn wire_cluster(lookups: usize) -> [u64; 2] {
    let geometry = ChordGeometry::populate(20, N, &mut SimRng::seed_from(SEED));
    let mut cluster = WireCluster::new(
        MiniDhtConfig::defaults(20, SEED),
        20,
        &geometry.members(),
        &capacities(),
        MiniProtocol::ElasticErt,
        &FaultPlan::new(SEED),
        RetryPolicy::default(),
        None,
    )
    .expect("valid world");
    let schedule = schedule(20, lookups);
    counting::during(|| {
        cluster.run_schedule(&schedule).expect("sound codec");
    })
}

/// Per runtime: its name, how to run it, and the ceilings on
/// allocations and bytes per lookup in debug and in release builds.
///
/// Each ceiling is the count the code measured when it was pinned. The
/// counts before the hop and the switch stopped allocating (`MiniDht`
/// and `WireCluster` alike in both profiles) were: Chord 14.92
/// allocations and 4 282 bytes, Pastry 14.34 and 3 868, the cluster
/// 49.33 and 5 758. Pastry's were 5.512 and 1 266.24 before the table
/// addressed its slots by index.
const BUDGETS: [(&str, Runtime, [f64; 2], [f64; 2]); 5] = [
    (
        "Network ERT/F",
        network_ert_f,
        [8.92, 637.76],
        [1.756, 489.92],
    ),
    (
        "Network ERT/AF",
        network_ert_af,
        [18.4, 1650.256],
        [2.544, 688.464],
    ),
    (
        "MiniDht Chord",
        minidht_chord,
        [3.336, 1307.84],
        [3.336, 1307.84],
    ),
    (
        "MiniDht Pastry",
        minidht_pastry,
        [5.492, 1256.0],
        [5.492, 1256.0],
    ),
    (
        "WireCluster",
        wire_cluster,
        [3.336, 1307.84],
        [3.336, 1307.84],
    ),
];

#[test]
fn allocations_per_lookup_stay_within_their_ceilings() {
    let mut over = Vec::new();
    for (name, run, debug, release) in BUDGETS {
        let (short, long) = (run(SHORT), run(LONG));
        let got = [0, 1].map(|i| (long[i] - short[i]) as f64 / (LONG - SHORT) as f64);
        let ceiling = if cfg!(debug_assertions) {
            debug
        } else {
            release
        };
        println!(
            "{name}: {} allocations, {} bytes per lookup (ceilings {:?})",
            got[0], got[1], ceiling
        );
        if got[0] > ceiling[0] || got[1] > ceiling[1] {
            over.push(format!("{name}: {got:?} over {ceiling:?}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}
