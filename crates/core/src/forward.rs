//! Query-forwarding policies (Section 4.1, Algorithm 4 of the paper).
//!
//! Once the elastic table gives each slot a *set* of candidates, the
//! forwarding policy decides which one takes the query:
//!
//! * [`ForwardPolicy::Deterministic`] — the classic DHT choice (the
//!   candidate logically closest to the target), used by the baselines;
//! * [`ForwardPolicy::RandomWalk`] — a uniformly random candidate;
//! * [`ForwardPolicy::TwoChoice`] — the paper's policy: probe `b = 2`
//!   random candidates (one may come from per-slot *memory*), prefer a
//!   light one, break light/light ties by logical then physical
//!   distance (`topology_aware`), remember the less-loaded option after
//!   the forward, and carry the set of overloaded nodes seen so far so
//!   later hops avoid them.
//!
//! There is one implementation, `Decision`: it draws from the
//! candidates' ids, and learns what the forwarding node knows locally
//! ([`Contact`]) and asks a candidate for its load only once it is
//! drawn — on a live node that question is an RPC, in the simulator a
//! memory read. A decision stops at each question and resumes with its
//! answer; [`choose_next_lazy`] is the loop that answers from a closure.
//! [`choose_next_reachable`] adds the hard exclusion of a partition cut,
//! and [`choose_next_b`] is the same function for a caller that already
//! holds every candidate's load in a slice.

use std::collections::BTreeSet;

use ert_sim::SimRng;

/// Which forwarding policy a protocol runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardPolicy {
    /// Forward to the candidate logically closest to the target.
    Deterministic,
    /// Forward to a uniformly random candidate.
    RandomWalk,
    /// The paper's b-way randomized policy (`b = 2`).
    TwoChoice {
        /// Break light/light ties by logical then physical distance
        /// instead of by load.
        topology_aware: bool,
        /// Reuse the slot's remembered least-loaded candidate as one of
        /// the two choices.
        use_memory: bool,
    },
}

/// One forwarding candidate with everything the policy may inspect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate<Id> {
    /// The candidate node.
    pub id: Id,
    /// Its current load (queries queued), learned by probing.
    pub load: f64,
    /// Its capacity in the same unit.
    pub capacity: f64,
    /// Remaining logical distance to the query target through this
    /// candidate.
    pub logical_distance: u64,
    /// Physical distance from the forwarding node to this candidate.
    pub physical_distance: f64,
}

impl<Id> Candidate<Id> {
    /// Congestion ratio `load / capacity`.
    pub fn congestion(&self) -> f64 {
        self.load / self.capacity
    }

    fn is_heavy(&self, gamma_l: f64) -> bool {
        self.congestion() > gamma_l
    }
}

/// What a forwarding node knows about a candidate without asking it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contact {
    /// Remaining logical distance to the query target through this
    /// candidate.
    pub logical_distance: u64,
    /// Physical distance from the forwarding node to this candidate.
    pub physical_distance: f64,
}

/// The buffers one Algorithm 4 decision works in. A caller that decides
/// at every hop keeps one and hands it to each decision, so a hop
/// allocates none of them; what they hold between decisions is
/// meaningless.
#[derive(Debug)]
pub struct ForwardScratch<Id> {
    /// Candidates not drawn yet, as indices into the decision's ids.
    pool: Vec<usize>,
    /// Known-overloaded candidates held back by Algorithm 4 line 3.
    avoided: Vec<usize>,
    /// The poll set of a [`ForwardPolicy::TwoChoice`] decision.
    polled: Vec<Candidate<Id>>,
}

impl<Id> Default for ForwardScratch<Id> {
    fn default() -> Self {
        ForwardScratch {
            pool: Vec::new(),
            avoided: Vec::new(),
            polled: Vec::new(),
        }
    }
}

/// The outcome of one forwarding decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardChoice<Id> {
    /// The next hop.
    pub next: Id,
    /// The candidate to remember for this slot (two-choice-with-memory:
    /// "the least loaded of that task's choices *after* allocation").
    pub new_memory: Option<Id>,
    /// Candidates discovered to be overloaded, to be appended to the
    /// query's avoid-set `A`.
    pub newly_overloaded: Vec<Id>,
    /// How many distinct candidates were probed for load.
    pub probes: usize,
}

/// Picks the next hop among `candidates` under `policy`.
///
/// `memory` is the slot's remembered candidate (ignored unless the
/// policy uses memory and the id is still a live candidate); `avoid` is
/// the query's accumulated set `A` of known-overloaded nodes — they are
/// excluded unless that would leave no candidate at all.
///
/// Returns `None` when `candidates` is empty.
///
/// ```
/// use ert_core::{choose_next, Candidate, ForwardPolicy};
/// use ert_sim::SimRng;
/// use std::collections::BTreeSet;
///
/// let mut rng = SimRng::seed_from(4);
/// let light = Candidate { id: 1, load: 1.0, capacity: 10.0, logical_distance: 3, physical_distance: 0.2 };
/// let heavy = Candidate { id: 2, load: 99.0, capacity: 10.0, logical_distance: 1, physical_distance: 0.1 };
/// let policy = ForwardPolicy::TwoChoice { topology_aware: true, use_memory: false };
/// let choice = choose_next(policy, &[light, heavy], None, &BTreeSet::new(), 1.0, &mut rng).unwrap();
/// assert_eq!(choice.next, 1);
/// assert_eq!(choice.newly_overloaded, vec![2]);
/// ```
///
/// # Panics
///
/// Panics if any candidate has non-positive capacity.
pub fn choose_next<Id: Copy + Ord + std::fmt::Debug>(
    policy: ForwardPolicy,
    candidates: &[Candidate<Id>],
    memory: Option<Id>,
    avoid: &BTreeSet<Id>,
    gamma_l: f64,
    rng: &mut SimRng,
) -> Option<ForwardChoice<Id>> {
    choose_next_b(policy, candidates, memory, avoid, gamma_l, 2, rng)
}

/// [`choose_next`] with an explicit poll size `b` for the randomized
/// policy (Section 4.1 analyzes general `b ≥ 2`; Mitzenmacher's result
/// says the `b = 2` step is the big one — the `b` ablation checks it).
///
/// This is [`choose_next_lazy`] over candidates whose load is already
/// known: the probe reads it from the slice.
///
/// # Panics
///
/// Panics if any candidate has non-positive capacity or
/// `probe_width == 0`.
pub fn choose_next_b<Id: Copy + Ord + std::fmt::Debug>(
    policy: ForwardPolicy,
    candidates: &[Candidate<Id>],
    memory: Option<Id>,
    avoid: &BTreeSet<Id>,
    gamma_l: f64,
    probe_width: usize,
    rng: &mut SimRng,
) -> Option<ForwardChoice<Id>> {
    for c in candidates {
        assert!(
            c.capacity > 0.0,
            "candidate {:?} has non-positive capacity",
            c.id
        );
    }
    let ids: Vec<Id> = candidates.iter().map(|c| c.id).collect();
    choose_next_lazy(
        policy,
        &ids,
        |i| Contact {
            logical_distance: candidates[i].logical_distance,
            physical_distance: candidates[i].physical_distance,
        },
        memory,
        avoid,
        gamma_l,
        probe_width,
        rng,
        |i| Some((candidates[i].load, candidates[i].capacity)),
        &mut ForwardScratch::default(),
    )
}

/// Algorithm 4 as draw-then-probe: the poll set is drawn from the
/// candidates' ids alone, and only a drawn candidate is looked at.
///
/// `contact(i)` says what the forwarding node knows of `ids[i]` without
/// asking it — its distances. `probe(i)` asks `ids[i]` and returns its
/// `(load, capacity)`, or `None` when it cannot be reached. An
/// unreachable candidate is out of this decision and the draw repeats;
/// `None` is returned when no candidate is left. [`ForwardPolicy::TwoChoice`]
/// asks each member of its poll set once — the remembered candidate
/// first, then fresh draws — so at most `probe_width` candidates when
/// all answer, and needs the contact of those that answer only;
/// [`ForwardPolicy::Deterministic`] reads each remaining candidate's
/// contact once per pick and asks only the candidate it picked, as does
/// [`ForwardPolicy::RandomWalk`], which reads no contact (both ask to
/// learn that the pick is reachable; they do not use its load).
///
/// Every draw depends only on the pool's length and order, never on a
/// load, so when every probe is answered the RNG stream is consumed
/// exactly as if all loads had been known up front.
///
/// This is the loop that answers a `Decision`'s polls from `probe`.
/// The decision works in `scratch`'s buffers; their contents on entry
/// do not matter.
///
/// # Ties at equal load
///
/// Every selection below is a `min_by`, and `min_by` keeps the
/// *earliest* of equally-minimal elements. The poll set is assembled
/// memory-first, then fresh draws in draw order, so a tie at equal
/// load (or equal congestion in the all-heavy branch, or equal
/// distances under topology-aware selection) resolves to the
/// earliest-polled candidate — the remembered node when memory is in
/// use and tied, otherwise the first RNG draw. No extra randomness is
/// consumed to break ties, which keeps the choice a pure function of
/// the inputs and the RNG stream position.
///
/// # Panics
///
/// Panics if a probed candidate reports non-positive capacity or
/// `probe_width == 0`.
#[expect(
    clippy::too_many_arguments,
    reason = "Algorithm 4 has this many inputs; a parameter struct would only rename them at each call site"
)]
pub fn choose_next_lazy<Id: Copy + Ord + std::fmt::Debug>(
    policy: ForwardPolicy,
    ids: &[Id],
    mut contact: impl FnMut(usize) -> Contact,
    memory: Option<Id>,
    avoid: &BTreeSet<Id>,
    gamma_l: f64,
    probe_width: usize,
    rng: &mut SimRng,
    mut probe: impl FnMut(usize) -> Option<(f64, f64)>,
    scratch: &mut ForwardScratch<Id>,
) -> Option<ForwardChoice<Id>> {
    let mut decision = Decision::new(policy, ids, memory, avoid, gamma_l, probe_width, scratch);
    let mut reply = None;
    loop {
        match decision.poll(scratch, reply, ids, &mut contact, rng) {
            Poll::Probe(i) => reply = probe(i),
            Poll::Done(choice) => return choice,
        }
    }
}

/// What a [`Decision`] needs next.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Poll<Id> {
    /// Ask `ids[i]` for its load; the reply goes to the next poll.
    Probe(usize),
    /// Decided; `None` when no candidate is left.
    Done(Option<ForwardChoice<Id>>),
}

/// The [`choose_next_lazy`] decision, stopped at each probe for a
/// caller that must send the question and wait: each
/// [`Decision::poll`] takes the reply to the probe it asked for last.
/// It works in the buffers of the one scratch handed to every call.
#[derive(Debug)]
pub(crate) struct Decision {
    policy: ForwardPolicy,
    gamma_l: f64,
    probe_width: usize,
    /// The remembered candidate, asked before any draw.
    remembered: Option<usize>,
    /// The candidate whose probe is out.
    asked: Option<usize>,
}

impl Decision {
    /// Opens a decision in `s`'s buffers; the inputs, and the panics,
    /// are [`choose_next_lazy`]'s.
    pub(crate) fn new<Id: Copy + Ord + std::fmt::Debug>(
        policy: ForwardPolicy,
        ids: &[Id],
        memory: Option<Id>,
        avoid: &BTreeSet<Id>,
        gamma_l: f64,
        probe_width: usize,
        s: &mut ForwardScratch<Id>,
    ) -> Self {
        assert!(probe_width >= 1, "need at least one probe");
        // The candidates not drawn yet, in slice order. Known-overloaded
        // nodes wait in `avoided` and come in only when that would leave
        // nobody (Algorithm 4 line 3) — at the start, or once everyone
        // else has been drawn and found unreachable.
        s.pool.clear();
        s.avoided.clear();
        s.pool.reserve(ids.len());
        for (i, id) in ids.iter().enumerate() {
            match avoid.contains(id) {
                true => s.avoided.push(i),
                false => s.pool.push(i),
            }
        }
        let mut remembered = None;
        if let ForwardPolicy::TwoChoice { use_memory, .. } = policy {
            // The poll set: the remembered candidate first (it is a free
            // extra choice), then fresh random draws up to b.
            s.polled.clear();
            s.polled.reserve(probe_width);
            line3(&mut s.pool, &mut s.avoided);
            let mut pool = s.pool.iter().copied();
            remembered = memory
                .filter(|_| use_memory)
                .and_then(|m| pool.find(|&i| ids[i] == m));
        }
        Decision {
            policy,
            gamma_l,
            probe_width,
            remembered,
            asked: None,
        }
    }

    /// Takes `reply` to the probe asked for last (`None`: unreachable;
    /// ignored when no probe is out) and draws on, in the buffers `new`
    /// filled, with [`choose_next_lazy`]'s `ids`, `contact` and `rng`.
    #[inline]
    pub(crate) fn poll<Id: Copy + Ord + std::fmt::Debug>(
        &mut self,
        s: &mut ForwardScratch<Id>,
        reply: Option<(f64, f64)>,
        ids: &[Id],
        mut contact: impl FnMut(usize) -> Contact,
        rng: &mut SimRng,
    ) -> Poll<Id> {
        if let (Some(i), Some((load, capacity))) = (self.asked.take(), reply) {
            let id = ids[i];
            assert!(capacity > 0.0, "candidate {id:?} has non-positive capacity");
            let ForwardPolicy::TwoChoice { .. } = self.policy else {
                // The others take their pick once it answers, whatever
                // its load.
                return Poll::Done(Some(ForwardChoice {
                    next: id,
                    new_memory: None,
                    newly_overloaded: Vec::new(),
                    probes: 0,
                }));
            };
            let c = contact(i);
            s.polled.push(Candidate {
                id,
                load,
                capacity,
                logical_distance: c.logical_distance,
                physical_distance: c.physical_distance,
            });
        }
        let next = match self.policy {
            ForwardPolicy::Deterministic => {
                line3(&mut s.pool, &mut s.avoided);
                let pool = s.pool.iter().map(|&i| (i, contact(i)));
                let best = pool.min_by(|(_, x), (_, y)| {
                    x.logical_distance
                        .cmp(&y.logical_distance)
                        .then(x.physical_distance.total_cmp(&y.physical_distance))
                });
                best.map(|(i, _)| i)
            }
            ForwardPolicy::RandomWalk => {
                line3(&mut s.pool, &mut s.avoided);
                rng.choose(&s.pool).copied()
            }
            ForwardPolicy::TwoChoice { .. } => match self.remembered.take() {
                Some(i) => Some(i),
                None if s.polled.len() < self.probe_width => {
                    if s.polled.is_empty() {
                        line3(&mut s.pool, &mut s.avoided);
                    }
                    rng.choose(&s.pool).copied()
                }
                None => None,
            },
        };
        if let Some(i) = next {
            // Drawing a candidate takes it out of the pool, whether or
            // not it answers.
            let id = ids[i];
            s.pool.retain(|&j| ids[j] != id);
            self.asked = Some(i);
            return Poll::Probe(i);
        }
        let ForwardPolicy::TwoChoice { topology_aware, .. } = self.policy else {
            return Poll::Done(None);
        };
        let (gamma_l, polled) = (self.gamma_l, &s.polled);
        let newly_overloaded: Vec<Id> = polled
            .iter()
            .filter(|c| c.is_heavy(gamma_l))
            .map(|c| c.id)
            .collect();
        let light = || polled.iter().filter(|c| !c.is_heavy(gamma_l));

        // `None` when every candidate was unreachable (`polled` is
        // empty); `total_cmp` gives NaN a fixed order instead of a panic.
        let chosen = if newly_overloaded.len() == polled.len() {
            // All heavy: the least heavily loaded takes it anyway.
            polled
                .iter()
                .min_by(|x, y| x.congestion().total_cmp(&y.congestion()))
        } else if topology_aware {
            light().min_by(|x, y| {
                x.logical_distance
                    .cmp(&y.logical_distance)
                    .then(x.physical_distance.total_cmp(&y.physical_distance))
            })
        } else {
            light().min_by(|x, y| x.load.total_cmp(&y.load))
        };
        Poll::Done(chosen.map(|chosen| {
            // Remember the least-loaded option *after* the forward adds
            // one unit to the chosen node.
            let new_memory = polled
                .iter()
                .min_by(|x, y| {
                    let lx = x.load + f64::from(x.id == chosen.id);
                    let ly = y.load + f64::from(y.id == chosen.id);
                    lx.total_cmp(&ly)
                })
                .map(|c| c.id);
            ForwardChoice {
                next: chosen.id,
                new_memory,
                newly_overloaded,
                probes: polled.len(),
            }
        }))
    }
}

/// Algorithm 4 line 3: the avoided candidates come in once nobody else
/// is left.
fn line3(pool: &mut Vec<usize>, avoided: &mut Vec<usize>) {
    if pool.is_empty() {
        std::mem::swap(pool, avoided);
    }
}

/// [`choose_next_lazy`] restricted to *reachable* candidates.
///
/// Fault injection (`ert-faults`) can make candidates unreachable in a
/// way the avoid-set must not model: `avoid` is a soft preference
/// (Algorithm 4 falls back to the full set when it empties the pool),
/// while a crashed or partitioned peer is a hard exclusion — forwarding
/// to it can never succeed. This wrapper drops unreachable ids before
/// the draw, and returns `None` when nothing survives, letting the
/// caller degrade to its successor-ring fallback (or retry after
/// backoff) instead of livelocking on a dead entry. A remembered
/// candidate across the cut is forgotten with it: the memory is looked
/// up among the ids drawn from. `contact` and `probe` keep taking
/// indices into `ids`.
///
/// Filtering first, rather than letting the cut's probes fail, draws
/// from the reachable candidates only: the RNG stream is that of
/// [`choose_next_lazy`] over the surviving ids, and with an empty
/// `unreachable` set it is [`choose_next_lazy`]'s, draw for draw.
///
/// # Panics
///
/// Panics if a probed candidate reports non-positive capacity or
/// `probe_width == 0`.
#[expect(
    clippy::too_many_arguments,
    reason = "choose_next_lazy's inputs plus the unreachable set; same trade as choose_next_lazy"
)]
pub fn choose_next_reachable<Id: Copy + Ord + std::fmt::Debug>(
    policy: ForwardPolicy,
    ids: &[Id],
    unreachable: &BTreeSet<Id>,
    mut contact: impl FnMut(usize) -> Contact,
    memory: Option<Id>,
    avoid: &BTreeSet<Id>,
    gamma_l: f64,
    probe_width: usize,
    rng: &mut SimRng,
    mut probe: impl FnMut(usize) -> Option<(f64, f64)>,
    scratch: &mut ForwardScratch<Id>,
) -> Option<ForwardChoice<Id>> {
    if unreachable.is_empty() {
        return choose_next_lazy(
            policy,
            ids,
            contact,
            memory,
            avoid,
            gamma_l,
            probe_width,
            rng,
            probe,
            scratch,
        );
    }
    let kept: Vec<usize> = (0..ids.len())
        .filter(|&i| !unreachable.contains(&ids[i]))
        .collect();
    let reachable: Vec<Id> = kept.iter().map(|&i| ids[i]).collect();
    choose_next_lazy(
        policy,
        &reachable,
        |i| contact(kept[i]),
        memory,
        avoid,
        gamma_l,
        probe_width,
        rng,
        |i| probe(kept[i]),
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, load: f64, logical: u64, physical: f64) -> Candidate<u32> {
        Candidate {
            id,
            load,
            capacity: 10.0,
            logical_distance: logical,
            physical_distance: physical,
        }
    }

    fn two_choice() -> ForwardPolicy {
        ForwardPolicy::TwoChoice {
            topology_aware: true,
            use_memory: false,
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut rng = SimRng::seed_from(1);
        let none: Option<ForwardChoice<u32>> =
            choose_next(two_choice(), &[], None, &BTreeSet::new(), 1.0, &mut rng);
        assert!(none.is_none());
    }

    #[test]
    fn deterministic_prefers_logical_then_physical() {
        let mut rng = SimRng::seed_from(2);
        let cands = [
            cand(1, 0.0, 5, 0.1),
            cand(2, 0.0, 2, 0.9),
            cand(3, 0.0, 2, 0.2),
        ];
        let c = choose_next(
            ForwardPolicy::Deterministic,
            &cands,
            None,
            &BTreeSet::new(),
            1.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(c.next, 3);
        assert_eq!(c.probes, 0);
    }

    #[test]
    fn random_walk_covers_candidates() {
        let mut rng = SimRng::seed_from(3);
        let cands = [
            cand(1, 0.0, 1, 0.1),
            cand(2, 0.0, 1, 0.1),
            cand(3, 0.0, 1, 0.1),
        ];
        let mut seen = BTreeSet::new();
        for _ in 0..100 {
            let c = choose_next(
                ForwardPolicy::RandomWalk,
                &cands,
                None,
                &BTreeSet::new(),
                1.0,
                &mut rng,
            )
            .unwrap();
            seen.insert(c.next);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn light_node_beats_heavy_node() {
        let mut rng = SimRng::seed_from(4);
        let light = cand(1, 2.0, 9, 0.9);
        let heavy = cand(2, 50.0, 1, 0.1);
        for _ in 0..50 {
            let c = choose_next(
                two_choice(),
                &[light, heavy],
                None,
                &BTreeSet::new(),
                1.0,
                &mut rng,
            )
            .unwrap();
            assert_eq!(c.next, 1);
            assert_eq!(c.newly_overloaded, vec![2]);
        }
    }

    #[test]
    fn both_heavy_forwards_to_least_congested_and_reports_both() {
        let mut rng = SimRng::seed_from(5);
        let h1 = cand(1, 40.0, 1, 0.1);
        let h2 = cand(2, 60.0, 1, 0.1);
        let c = choose_next(
            two_choice(),
            &[h1, h2],
            None,
            &BTreeSet::new(),
            1.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(c.next, 1);
        let mut reported = c.newly_overloaded.clone();
        reported.sort_unstable();
        assert_eq!(reported, vec![1, 2]);
    }

    #[test]
    fn both_light_topology_aware_tie_break() {
        let mut rng = SimRng::seed_from(6);
        let near = cand(1, 5.0, 2, 0.5);
        let far = cand(2, 1.0, 7, 0.1);
        for _ in 0..50 {
            let c = choose_next(
                two_choice(),
                &[near, far],
                None,
                &BTreeSet::new(),
                1.0,
                &mut rng,
            )
            .unwrap();
            assert_eq!(c.next, 1, "logical distance should win over load");
        }
        // Same logical distance: physical breaks the tie.
        let a = cand(1, 5.0, 3, 0.8);
        let b = cand(2, 1.0, 3, 0.2);
        for _ in 0..50 {
            let c =
                choose_next(two_choice(), &[a, b], None, &BTreeSet::new(), 1.0, &mut rng).unwrap();
            assert_eq!(c.next, 2);
        }
    }

    #[test]
    fn both_light_load_based_without_topology() {
        let mut rng = SimRng::seed_from(7);
        let policy = ForwardPolicy::TwoChoice {
            topology_aware: false,
            use_memory: false,
        };
        let a = cand(1, 5.0, 1, 0.1);
        let b = cand(2, 1.0, 9, 0.9);
        for _ in 0..50 {
            let c = choose_next(policy, &[a, b], None, &BTreeSet::new(), 1.0, &mut rng).unwrap();
            assert_eq!(c.next, 2, "lower load should win when not topology-aware");
        }
    }

    #[test]
    fn equal_load_tie_prefers_the_remembered_candidate() {
        // Ties resolve to the earliest-polled candidate, and the poll
        // set is assembled memory-first: a remembered node at exactly
        // equal load keeps the query (no randomness is burned on the
        // tie), regardless of the RNG stream.
        let policy = ForwardPolicy::TwoChoice {
            topology_aware: false,
            use_memory: true,
        };
        let a = cand(1, 3.0, 5, 0.9);
        let b = cand(2, 3.0, 1, 0.1);
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..10 {
                let c =
                    choose_next(policy, &[a, b], Some(2), &BTreeSet::new(), 1.0, &mut rng).unwrap();
                assert_eq!(c.next, 2, "remembered candidate must win load ties");
            }
        }
    }

    #[test]
    fn equal_load_tie_without_memory_goes_to_the_first_draw() {
        // Without memory the earliest-polled candidate is the first
        // fresh RNG draw — predictable from the stream position, and
        // not biased toward either candidate across seeds.
        let policy = ForwardPolicy::TwoChoice {
            topology_aware: false,
            use_memory: false,
        };
        let a = cand(1, 3.0, 5, 0.9);
        let b = cand(2, 3.0, 1, 0.1);
        let mut winners = BTreeSet::new();
        for seed in 0..40 {
            let mut live = SimRng::seed_from(seed);
            let mut replay = SimRng::seed_from(seed);
            let refs: Vec<&Candidate<u32>> = vec![&a, &b];
            let predicted = replay.choose(&refs).copied().unwrap().id;
            let c = choose_next(policy, &[a, b], None, &BTreeSet::new(), 1.0, &mut live).unwrap();
            assert_eq!(c.next, predicted, "tie must go to the first draw");
            winners.insert(c.next);
        }
        assert_eq!(winners.len(), 2, "both candidates should win some seeds");
    }

    #[test]
    fn equal_congestion_all_heavy_tie_is_earliest_polled() {
        // The all-heavy branch selects by congestion with the same
        // earliest-polled tie rule, so a remembered heavy node tied on
        // congestion takes the forward.
        let policy = ForwardPolicy::TwoChoice {
            topology_aware: false,
            use_memory: true,
        };
        let a = cand(1, 50.0, 5, 0.9);
        let b = cand(2, 50.0, 1, 0.1);
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed);
            let c = choose_next(policy, &[a, b], Some(2), &BTreeSet::new(), 1.0, &mut rng).unwrap();
            assert_eq!(c.next, 2);
            let mut reported = c.newly_overloaded.clone();
            reported.sort_unstable();
            assert_eq!(reported, vec![1, 2]);
        }
    }

    #[test]
    fn avoid_set_excludes_unless_it_empties_pool() {
        let mut rng = SimRng::seed_from(8);
        let a = cand(1, 0.0, 1, 0.1);
        let b = cand(2, 0.0, 1, 0.1);
        let avoid: BTreeSet<u32> = [1].into_iter().collect();
        for _ in 0..20 {
            let c = choose_next(two_choice(), &[a, b], None, &avoid, 1.0, &mut rng).unwrap();
            assert_eq!(c.next, 2);
        }
        // All candidates avoided: fall back to the full set.
        let avoid_all: BTreeSet<u32> = [1, 2].into_iter().collect();
        let c = choose_next(two_choice(), &[a, b], None, &avoid_all, 1.0, &mut rng).unwrap();
        assert!([1, 2].contains(&c.next));
    }

    #[test]
    fn memory_is_used_as_first_choice() {
        let mut rng = SimRng::seed_from(9);
        let policy = ForwardPolicy::TwoChoice {
            topology_aware: false,
            use_memory: true,
        };
        // Memory points at the lightest node; with two candidates the
        // pair is always {memory, other}, so the memory node must win.
        let light = cand(1, 0.0, 1, 0.1);
        let heavy = cand(2, 9.0, 1, 0.1);
        for _ in 0..30 {
            let c = choose_next(
                policy,
                &[light, heavy],
                Some(1),
                &BTreeSet::new(),
                1.0,
                &mut rng,
            )
            .unwrap();
            assert_eq!(c.next, 1);
        }
        // Stale memory (id 99 not a candidate) must not panic.
        let c = choose_next(
            policy,
            &[light, heavy],
            Some(99),
            &BTreeSet::new(),
            1.0,
            &mut rng,
        )
        .unwrap();
        assert!([1, 2].contains(&c.next));
    }

    #[test]
    fn memory_updates_to_less_loaded_after_allocation() {
        let mut rng = SimRng::seed_from(10);
        // Chosen node ends at load 1; other sits at load 5 -> remember chosen.
        let a = cand(1, 0.0, 1, 0.1);
        let b = cand(2, 5.0, 1, 0.1);
        let c = choose_next(two_choice(), &[a, b], None, &BTreeSet::new(), 1.0, &mut rng).unwrap();
        assert_eq!(c.next, 1);
        assert_eq!(c.new_memory, Some(1));
        // Chosen ends at load 1; other sits at 0 -> remember the other.
        let a = cand(1, 0.0, 1, 0.1);
        let b = cand(2, 0.0, 9, 0.9);
        let c = choose_next(two_choice(), &[a, b], None, &BTreeSet::new(), 1.0, &mut rng).unwrap();
        assert_eq!(c.next, 1);
        assert_eq!(c.new_memory, Some(2));
    }

    #[test]
    fn single_candidate_probes_once() {
        let mut rng = SimRng::seed_from(11);
        let only = cand(1, 3.0, 1, 0.1);
        let c = choose_next(two_choice(), &[only], None, &BTreeSet::new(), 1.0, &mut rng).unwrap();
        assert_eq!(c.next, 1);
        assert_eq!(c.probes, 1);
        assert_eq!(c.new_memory, Some(1));
    }

    #[test]
    fn congestion_accessor() {
        let c = cand(1, 5.0, 1, 0.1);
        assert_eq!(c.congestion(), 0.5);
    }

    /// What the forwarding node knows of `c` without asking it.
    fn contact_of(c: &Candidate<u32>) -> Contact {
        Contact {
            logical_distance: c.logical_distance,
            physical_distance: c.physical_distance,
        }
    }

    fn ids_of(cands: &[Candidate<u32>]) -> Vec<u32> {
        cands.iter().map(|c| c.id).collect()
    }

    /// [`choose_next_reachable`] over a candidate slice whose every
    /// candidate answers its probe.
    #[expect(
        clippy::too_many_arguments,
        reason = "choose_next_reachable's own inputs, with the slice standing in for the closures"
    )]
    fn reachable(
        policy: ForwardPolicy,
        cands: &[Candidate<u32>],
        unreachable: &BTreeSet<u32>,
        memory: Option<u32>,
        avoid: &BTreeSet<u32>,
        gamma_l: f64,
        probe_width: usize,
        rng: &mut SimRng,
    ) -> Option<ForwardChoice<u32>> {
        choose_next_reachable(
            policy,
            &ids_of(cands),
            unreachable,
            |i| contact_of(&cands[i]),
            memory,
            avoid,
            gamma_l,
            probe_width,
            rng,
            |i| Some((cands[i].load, cands[i].capacity)),
            &mut ForwardScratch::default(),
        )
    }

    #[test]
    fn reachable_filter_hard_excludes() {
        let mut rng = SimRng::seed_from(12);
        let a = cand(1, 0.0, 1, 0.1);
        let b = cand(2, 0.0, 1, 0.1);
        let cut: BTreeSet<u32> = [1].into_iter().collect();
        for _ in 0..20 {
            let c = reachable(
                two_choice(),
                &[a, b],
                &cut,
                None,
                &BTreeSet::new(),
                1.0,
                2,
                &mut rng,
            )
            .unwrap();
            assert_eq!(c.next, 2);
        }
    }

    #[test]
    fn all_unreachable_yields_none_not_fallback() {
        // Unlike the avoid-set (soft), unreachability never falls back
        // to the full candidate list.
        let mut rng = SimRng::seed_from(13);
        let a = cand(1, 0.0, 1, 0.1);
        let b = cand(2, 0.0, 1, 0.1);
        let cut: BTreeSet<u32> = [1, 2].into_iter().collect();
        let c = reachable(
            two_choice(),
            &[a, b],
            &cut,
            None,
            &BTreeSet::new(),
            1.0,
            2,
            &mut rng,
        );
        assert!(c.is_none());
    }

    #[test]
    fn unreachable_memory_is_forgotten() {
        let mut rng = SimRng::seed_from(14);
        let policy = ForwardPolicy::TwoChoice {
            topology_aware: false,
            use_memory: true,
        };
        let a = cand(1, 0.0, 1, 0.1);
        let b = cand(2, 9.0, 1, 0.1);
        let cut: BTreeSet<u32> = [1].into_iter().collect();
        // Memory points at the unreachable node; the pick must not be it.
        let c = reachable(
            policy,
            &[a, b],
            &cut,
            Some(1),
            &BTreeSet::new(),
            1.0,
            2,
            &mut rng,
        )
        .unwrap();
        assert_eq!(c.next, 2);
    }

    #[test]
    fn empty_cut_matches_choose_next_b_exactly() {
        let cands = [
            cand(1, 1.0, 4, 0.3),
            cand(2, 3.0, 2, 0.2),
            cand(3, 0.0, 6, 0.6),
        ];
        for seed in 0..16 {
            let mut ra = SimRng::seed_from(seed);
            let mut rb = SimRng::seed_from(seed);
            let a = choose_next_b(
                two_choice(),
                &cands,
                None,
                &BTreeSet::new(),
                1.0,
                2,
                &mut ra,
            );
            let b = reachable(
                two_choice(),
                &cands,
                &BTreeSet::new(),
                None,
                &BTreeSet::new(),
                1.0,
                2,
                &mut rb,
            );
            assert_eq!(a, b);
        }
    }

    /// The eager `choose_next_b` as it stood before the draw-then-probe
    /// split, kept verbatim as the reference model (the way `table.rs`
    /// keeps `ModelTable`): every load is known before the first draw.
    fn eager_choose_next_b<Id: Copy + Ord + std::fmt::Debug>(
        policy: ForwardPolicy,
        candidates: &[Candidate<Id>],
        memory: Option<Id>,
        avoid: &BTreeSet<Id>,
        gamma_l: f64,
        probe_width: usize,
        rng: &mut SimRng,
    ) -> Option<ForwardChoice<Id>> {
        assert!(probe_width >= 1, "need at least one probe");
        if candidates.is_empty() {
            return None;
        }
        for c in candidates {
            assert!(
                c.capacity > 0.0,
                "candidate {:?} has non-positive capacity",
                c.id
            );
        }
        // Exclude known-overloaded nodes unless that empties the pool
        // (Algorithm 4 line 3).
        let pool: Vec<&Candidate<Id>> = {
            let filtered: Vec<&Candidate<Id>> = candidates
                .iter()
                .filter(|c| !avoid.contains(&c.id))
                .collect();
            if filtered.is_empty() {
                candidates.iter().collect()
            } else {
                filtered
            }
        };

        match policy {
            ForwardPolicy::Deterministic => {
                // `?` never fires: the pool is nonempty by the emptiness
                // check above. Propagating keeps this hot path panic-free.
                let best = pool.iter().min_by(|x, y| {
                    x.logical_distance
                        .cmp(&y.logical_distance)
                        .then(x.physical_distance.total_cmp(&y.physical_distance))
                })?;
                Some(ForwardChoice {
                    next: best.id,
                    new_memory: None,
                    newly_overloaded: Vec::new(),
                    probes: 0,
                })
            }
            ForwardPolicy::RandomWalk => {
                let pick = *rng.choose(&pool)?;
                Some(ForwardChoice {
                    next: pick.id,
                    new_memory: None,
                    newly_overloaded: Vec::new(),
                    probes: 0,
                })
            }
            ForwardPolicy::TwoChoice {
                topology_aware,
                use_memory,
            } => {
                // Assemble the poll set: the remembered candidate first (it
                // is a free extra choice), then fresh random draws up to b.
                let b = probe_width.min(pool.len()).max(1);
                let mut polled: Vec<&Candidate<Id>> = Vec::with_capacity(b);
                if use_memory {
                    if let Some(m) = memory {
                        if let Some(c) = pool.iter().copied().find(|c| c.id == m) {
                            polled.push(c);
                        }
                    }
                }
                while polled.len() < b {
                    let fresh: Vec<&Candidate<Id>> = pool
                        .iter()
                        .copied()
                        .filter(|c| !polled.iter().any(|p| p.id == c.id))
                        .collect();
                    match rng.choose(&fresh) {
                        Some(&c) => polled.push(c),
                        None => break,
                    }
                }
                debug_assert!(!polled.is_empty());

                let light: Vec<&Candidate<Id>> = polled
                    .iter()
                    .copied()
                    .filter(|c| !c.is_heavy(gamma_l))
                    .collect();
                let newly_overloaded: Vec<Id> = polled
                    .iter()
                    .filter(|c| c.is_heavy(gamma_l))
                    .map(|c| c.id)
                    .collect();

                // The three `?`s below never fire — `polled` is nonempty by
                // construction and `light` is checked first — and
                // `total_cmp` gives NaN a fixed order instead of a panic.
                let chosen: &Candidate<Id> = if light.is_empty() {
                    // All heavy: the least heavily loaded takes it anyway.
                    polled
                        .iter()
                        .copied()
                        .min_by(|x, y| x.congestion().total_cmp(&y.congestion()))?
                } else if topology_aware {
                    light.iter().copied().min_by(|x, y| {
                        x.logical_distance
                            .cmp(&y.logical_distance)
                            .then(x.physical_distance.total_cmp(&y.physical_distance))
                    })?
                } else {
                    light
                        .iter()
                        .copied()
                        .min_by(|x, y| x.load.total_cmp(&y.load))?
                };

                // Remember the least-loaded option *after* the forward adds
                // one unit to the chosen node.
                let new_memory = polled
                    .iter()
                    .copied()
                    .min_by(|x, y| {
                        let lx = x.load + f64::from(x.id == chosen.id);
                        let ly = y.load + f64::from(y.id == chosen.id);
                        lx.total_cmp(&ly)
                    })
                    .map(|c| c.id);

                Some(ForwardChoice {
                    next: chosen.id,
                    new_memory,
                    newly_overloaded,
                    probes: polled.len(),
                })
            }
        }
    }

    /// The eager `choose_next_reachable` as it stood before the simulator
    /// drew, then probed, kept verbatim as the reference model over
    /// [`eager_choose_next_b`]: every candidate's load and distances are
    /// in the slice before the cut is filtered.
    #[expect(
        clippy::too_many_arguments,
        reason = "the model keeps the signature it had"
    )]
    fn eager_choose_next_reachable<Id: Copy + Ord + std::fmt::Debug>(
        policy: ForwardPolicy,
        candidates: &[Candidate<Id>],
        unreachable: &BTreeSet<Id>,
        memory: Option<Id>,
        avoid: &BTreeSet<Id>,
        gamma_l: f64,
        probe_width: usize,
        rng: &mut SimRng,
    ) -> Option<ForwardChoice<Id>> {
        if unreachable.is_empty() {
            return eager_choose_next_b(
                policy,
                candidates,
                memory,
                avoid,
                gamma_l,
                probe_width,
                rng,
            );
        }
        let reachable: Vec<Candidate<Id>> = candidates
            .iter()
            .filter(|c| !unreachable.contains(&c.id))
            .copied()
            .collect();
        let memory = memory.filter(|m| !unreachable.contains(m));
        eager_choose_next_b(policy, &reachable, memory, avoid, gamma_l, probe_width, rng)
    }

    proptest::proptest! {
        /// Draw-then-probe behind the partition cut makes the same choice
        /// as the eager model and leaves the RNG where the model leaves
        /// it; it asks exactly the candidates it polled, and reads the
        /// contact of a two-choice poll's members only — of no candidate
        /// across the cut, under any policy.
        #[test]
        fn lazy_matches_the_eager_model_draw_for_draw(
            specs in proptest::collection::vec(
                ((0u32..40, 0u64..6, 0u32..4, 1u32..20), (0u8..4, 0u8..4)),
                0..9,
            ),
            avoid in proptest::collection::vec(0usize..9, 0..4),
            memory in 0usize..16,
            probe_width in 1usize..5,
            policy_ix in 0usize..6,
            seed in 0u64..1000,
        ) {
            // A quarter of the candidates have departed, and answer
            // (0, 1) as the simulator's departed ids do; a quarter of the
            // rest sit across the cut.
            let departed: Vec<bool> = specs.iter().map(|&(_, (d, _))| d == 0).collect();
            let cut: BTreeSet<u32> = (0..specs.len())
                .filter(|&i| !departed[i] && specs[i].1 .1 == 0)
                .map(|i| i as u32)
                .collect();
            let answer = |i: usize| {
                let (load, _, _, capacity) = specs[i].0;
                match departed[i] {
                    true => (0.0, 1.0),
                    false => (f64::from(load), f64::from(capacity)),
                }
            };
            let cands: Vec<Candidate<u32>> = specs
                .iter()
                .enumerate()
                .map(|(i, &((_, logical, physical, _), _))| Candidate {
                    id: i as u32,
                    load: answer(i).0,
                    capacity: answer(i).1,
                    logical_distance: logical,
                    physical_distance: f64::from(physical) / 4.0,
                })
                .collect();
            // Indices past the end make a stale memory / a foreign avoid
            // entry; the top two values remember a candidate in the cut.
            let avoid: BTreeSet<u32> = avoid.into_iter().map(|i| i as u32).collect();
            let memory = match memory {
                0..=9 => Some(memory as u32),
                10..=13 => None,
                _ => cut.first().copied(),
            };
            let policy = match policy_ix {
                0 => ForwardPolicy::Deterministic,
                1 => ForwardPolicy::RandomWalk,
                n => ForwardPolicy::TwoChoice {
                    topology_aware: n & 1 == 0,
                    use_memory: n >= 4,
                },
            };
            let mut eager_rng = SimRng::seed_from(seed);
            let mut lazy_rng = SimRng::seed_from(seed);
            let eager = eager_choose_next_reachable(
                policy, &cands, &cut, memory, &avoid, 0.75, probe_width, &mut eager_rng,
            );
            let (ids, mut scratch) = (ids_of(&cands), ForwardScratch::default());
            let (mut contacted, mut asked) = (Vec::new(), Vec::new());
            let lazy = choose_next_reachable(
                policy,
                &ids,
                &cut,
                |i| {
                    contacted.push(i);
                    contact_of(&cands[i])
                },
                memory,
                &avoid,
                0.75,
                probe_width,
                &mut lazy_rng,
                |i| {
                    asked.push(i);
                    Some(answer(i))
                },
                &mut scratch,
            );
            proptest::prop_assert_eq!(&lazy, &eager);
            proptest::prop_assert_eq!(lazy_rng.exp_secs(1.0).to_bits(), eager_rng.exp_secs(1.0).to_bits());
            // The buffers a decision leaves behind change nothing.
            let again = choose_next_reachable(
                policy,
                &ids,
                &cut,
                |i| contact_of(&cands[i]),
                memory,
                &avoid,
                0.75,
                probe_width,
                &mut SimRng::seed_from(seed),
                |i| Some(answer(i)),
                &mut scratch,
            );
            proptest::prop_assert_eq!(&again, &eager);
            let mut distinct = asked.clone();
            distinct.sort_unstable();
            distinct.dedup();
            proptest::prop_assert_eq!(distinct.len(), asked.len(), "a candidate was asked twice");
            let across = |i: &usize| cut.contains(&(*i as u32));
            proptest::prop_assert!(!asked.iter().any(across), "a candidate across the cut was asked");
            proptest::prop_assert!(!contacted.iter().any(across), "a candidate across the cut was read");
            let reachable = specs.len() - cut.len();
            match (policy, &lazy) {
                (_, None) => {
                    proptest::prop_assert_eq!(reachable, 0);
                    proptest::prop_assert!(asked.is_empty() && contacted.is_empty());
                }
                (ForwardPolicy::TwoChoice { .. }, Some(choice)) => {
                    proptest::prop_assert_eq!(asked.len(), choice.probes);
                    proptest::prop_assert_eq!(&contacted, &asked, "contacts are read for the poll only");
                    proptest::prop_assert!(choice.probes <= probe_width);
                }
                (ForwardPolicy::Deterministic, Some(choice)) => {
                    proptest::prop_assert_eq!(&asked, &[choice.next as usize]);
                    let mut once = contacted.clone();
                    once.sort_unstable();
                    once.dedup();
                    proptest::prop_assert_eq!(once.len(), contacted.len(), "a contact was read twice");
                    proptest::prop_assert!(contacted.len() <= reachable);
                }
                (ForwardPolicy::RandomWalk, Some(choice)) => {
                    proptest::prop_assert_eq!(&asked, &[choice.next as usize]);
                    proptest::prop_assert!(contacted.is_empty());
                }
            }
        }
    }

    #[test]
    fn lazy_redraws_past_unreachable_candidates() {
        let cands = [
            cand(1, 0.0, 1, 0.1),
            cand(2, 0.0, 2, 0.1),
            cand(3, 0.0, 3, 0.1),
        ];
        let ids = ids_of(&cands);
        let none = BTreeSet::new();
        for policy in [
            ForwardPolicy::Deterministic,
            ForwardPolicy::RandomWalk,
            two_choice(),
        ] {
            for seed in 0..20 {
                let mut rng = SimRng::seed_from(seed);
                // Only candidate 3 answers.
                let c = choose_next_lazy(
                    policy,
                    &ids,
                    |i| contact_of(&cands[i]),
                    Some(1),
                    &none,
                    1.0,
                    2,
                    &mut rng,
                    |i| (i == 2).then_some((0.0, 10.0)),
                    &mut ForwardScratch::default(),
                )
                .unwrap();
                assert_eq!(c.next, 3, "{policy:?}");
                let c = choose_next_lazy(
                    policy,
                    &ids,
                    |i| contact_of(&cands[i]),
                    None,
                    &none,
                    1.0,
                    2,
                    &mut rng,
                    |_| None,
                    &mut ForwardScratch::default(),
                );
                assert!(c.is_none(), "{policy:?}: nobody answers");
            }
        }
    }

    #[test]
    fn lazy_falls_back_to_avoided_candidates_when_the_rest_are_unreachable() {
        // Algorithm 4 line 3 with reachability known only by asking: the
        // avoid-set yields once every other candidate has been tried.
        let cands = [cand(1, 0.0, 1, 0.1), cand(2, 0.0, 2, 0.1)];
        let avoid: BTreeSet<u32> = [2].into_iter().collect();
        let mut rng = SimRng::seed_from(15);
        let c = choose_next_lazy(
            two_choice(),
            &ids_of(&cands),
            |i| contact_of(&cands[i]),
            None,
            &avoid,
            1.0,
            2,
            &mut rng,
            |i| (i == 1).then_some((0.0, 10.0)),
            &mut ForwardScratch::default(),
        )
        .unwrap();
        assert_eq!(c.next, 2);
    }
}
