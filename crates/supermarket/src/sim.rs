//! Discrete-event simulation of the finite-`n` supermarket system.

use ert_sim::stats::TimeWeighted;
use ert_sim::{Engine, SimDuration, SimRng, SimTime};
use serde::Serialize;

/// The dispatch policy of one arriving customer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChoicePolicy {
    /// Number of servers sampled (`b`).
    pub choices: u32,
    /// Strong-threshold variant: settle on the first sampled server
    /// whose queue is below this, only comparing all `b` when none is.
    pub threshold: Option<u32>,
    /// Two-choice-with-memory (Mitzenmacher et al., FOCS '02): carry
    /// the less-loaded loser of the previous dispatch as a free extra
    /// choice — the refinement Algorithm 4 adapts.
    pub memory: bool,
}

impl ChoicePolicy {
    /// Plain `b`-choice shortest-queue dispatch.
    pub fn shortest_of(choices: u32) -> Self {
        ChoicePolicy {
            choices,
            threshold: None,
            memory: false,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimOutcome {
    /// Mean time customers spent in the system (service time is mean 1).
    pub mean_time_in_system: f64,
    /// Mean queue length sampled at arrival instants.
    pub mean_queue_at_arrival: f64,
    /// Time-weighted mean of the total number of customers in the
    /// system (Little's law: ≈ λn · mean time in system).
    pub time_weighted_customers: f64,
    /// Largest queue ever observed.
    pub max_queue: usize,
    /// Customers served.
    pub served: u64,
}

/// A finite supermarket system: `n` exponential(1) servers fed by a
/// Poisson stream of rate `λn`.
///
/// ```
/// use ert_supermarket::{ChoicePolicy, SupermarketSim};
/// let sim = SupermarketSim::new(200, 0.9);
/// let one = sim.run(ChoicePolicy::shortest_of(1), 2_000.0, 7);
/// let two = sim.run(ChoicePolicy::shortest_of(2), 2_000.0, 7);
/// assert!(two.mean_time_in_system < one.mean_time_in_system / 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SupermarketSim {
    n: usize,
    lambda: f64,
}

#[derive(Debug)]
enum Ev {
    Arrive,
    Depart(usize),
}

impl SupermarketSim {
    /// Creates a system of `n` servers at load `λ` per server.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 2` and `0 < lambda < 1`.
    pub fn new(n: usize, lambda: f64) -> Self {
        assert!(n >= 2, "need at least two servers");
        assert!(
            lambda > 0.0 && lambda < 1.0,
            "lambda must be in (0,1): {lambda}"
        );
        SupermarketSim { n, lambda }
    }

    /// Runs for `horizon` simulated time units under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive or the policy samples zero
    /// servers.
    pub fn run(&self, policy: ChoicePolicy, horizon: f64, seed: u64) -> SimOutcome {
        assert!(horizon > 0.0, "horizon must be positive");
        assert!(policy.choices >= 1, "need at least one choice");
        let mut rng = SimRng::seed_from(seed);
        let mut engine: Engine<Ev> = Engine::new();
        // Queue per server; each entry is the arrival instant.
        let mut queues: Vec<Vec<SimTime>> = vec![Vec::new(); self.n];
        let mut memory: Option<usize> = None;
        let (mut total_time, mut served) = (0.0f64, 0u64);
        let (mut queue_sum, mut arrivals) = (0.0f64, 0u64);
        let mut max_queue = 0usize;
        let mut in_system = 0i64;
        let mut gauge = TimeWeighted::new();
        gauge.set(SimTime::ZERO, 0.0);
        let arrival_rate = self.lambda * self.n as f64;
        let end = SimTime::from_secs_f64(horizon);

        engine.schedule_in(
            SimDuration::from_secs_f64(rng.exp_secs(arrival_rate)),
            Ev::Arrive,
        );
        while let Some((now, ev)) = engine.pop() {
            if now > end {
                break;
            }
            match ev {
                Ev::Arrive => {
                    engine.schedule_in(
                        SimDuration::from_secs_f64(rng.exp_secs(arrival_rate)),
                        Ev::Arrive,
                    );
                    let picks = self.sample_servers(policy, memory, &mut rng);
                    let chosen = self.choose(&picks, policy, &queues);
                    // Memory keeps the least-loaded option after the
                    // chosen server takes the customer. Ties go to the
                    // freshest sample (reversed scan) — always breaking
                    // toward the memory server makes it a hot spot.
                    if policy.memory {
                        memory = picks
                            .iter()
                            .rev()
                            .copied()
                            .min_by_key(|&s| queues[s].len() + usize::from(s == chosen))
                            .or(Some(chosen));
                    }
                    queue_sum += queues[chosen].len() as f64;
                    arrivals += 1;
                    in_system += 1;
                    gauge.set(now, in_system as f64);
                    queues[chosen].push(now);
                    max_queue = max_queue.max(queues[chosen].len());
                    if queues[chosen].len() == 1 {
                        engine.schedule_in(
                            SimDuration::from_secs_f64(rng.exp_secs(1.0)),
                            Ev::Depart(chosen),
                        );
                    }
                }
                Ev::Depart(s) => {
                    let arrived = queues[s].remove(0);
                    total_time += (now - arrived).as_secs_f64();
                    served += 1;
                    in_system -= 1;
                    gauge.set(now, in_system as f64);
                    if !queues[s].is_empty() {
                        engine.schedule_in(
                            SimDuration::from_secs_f64(rng.exp_secs(1.0)),
                            Ev::Depart(s),
                        );
                    }
                }
            }
        }
        SimOutcome {
            mean_time_in_system: if served == 0 {
                0.0
            } else {
                total_time / served as f64
            },
            mean_queue_at_arrival: if arrivals == 0 {
                0.0
            } else {
                queue_sum / arrivals as f64
            },
            time_weighted_customers: gauge.mean_until(end.max(gauge.last_change_time())),
            max_queue,
            served,
        }
    }

    fn sample_servers(
        &self,
        policy: ChoicePolicy,
        memory: Option<usize>,
        rng: &mut SimRng,
    ) -> Vec<usize> {
        let mut picks = Vec::with_capacity(policy.choices as usize + 1);
        if policy.memory {
            if let Some(m) = memory {
                picks.push(m);
            }
        }
        let fresh = policy.choices as usize - usize::from(!picks.is_empty()).min(1);
        let fresh = fresh.max(1);
        picks.extend(rng.sample_indices(self.n, fresh));
        picks.dedup();
        picks
    }

    fn choose(&self, picks: &[usize], policy: ChoicePolicy, queues: &[Vec<SimTime>]) -> usize {
        if let Some(t) = policy.threshold {
            // Strong threshold: scan sequentially, settle on the first
            // server below the threshold.
            for &s in picks {
                if queues[s].len() < t as usize {
                    return s;
                }
            }
        }
        // Ties break toward the freshest sample, not the memory slot.
        picks
            .iter()
            .rev()
            .copied()
            .min_by_key(|&s| queues[s].len())
            .expect("picks nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected_time;

    #[test]
    fn single_choice_tracks_mm1() {
        let sim = SupermarketSim::new(300, 0.7);
        let out = sim.run(ChoicePolicy::shortest_of(1), 1_500.0, 1);
        let theory = expected_time(0.7, 1); // 3.33
        let rel = (out.mean_time_in_system - theory).abs() / theory;
        assert!(
            rel < 0.12,
            "sim {} vs theory {theory}",
            out.mean_time_in_system
        );
    }

    #[test]
    fn two_choice_tracks_mean_field() {
        let sim = SupermarketSim::new(300, 0.9);
        let out = sim.run(ChoicePolicy::shortest_of(2), 1_500.0, 2);
        let theory = expected_time(0.9, 2);
        let rel = (out.mean_time_in_system - theory).abs() / theory;
        assert!(
            rel < 0.15,
            "sim {} vs theory {theory}",
            out.mean_time_in_system
        );
    }

    #[test]
    fn theorem_41_exponential_improvement() {
        let sim = SupermarketSim::new(300, 0.95);
        let t1 = sim
            .run(ChoicePolicy::shortest_of(1), 2_000.0, 3)
            .mean_time_in_system;
        let t2 = sim
            .run(ChoicePolicy::shortest_of(2), 2_000.0, 3)
            .mean_time_in_system;
        assert!(t2 * 3.0 < t1, "b=2 ({t2}) should crush b=1 ({t1})");
    }

    #[test]
    fn threshold_variant_close_to_plain_two_choice() {
        let sim = SupermarketSim::new(300, 0.9);
        let plain = sim.run(ChoicePolicy::shortest_of(2), 1_500.0, 4);
        let thresh = sim.run(
            ChoicePolicy {
                choices: 2,
                threshold: Some(2),
                memory: false,
            },
            1_500.0,
            4,
        );
        let rel = (plain.mean_time_in_system - thresh.mean_time_in_system).abs()
            / plain.mean_time_in_system;
        assert!(
            rel < 0.35,
            "plain {} vs threshold {}",
            plain.mean_time_in_system,
            thresh.mean_time_in_system
        );
    }

    #[test]
    fn memory_with_one_fresh_probe_stays_in_the_two_choice_class() {
        // The paper's memory refinement halves the probe cost (one
        // fresh sample instead of two). It must stay far below random
        // walking and within a constant factor of plain two-choice —
        // not match it exactly (only one sample is fresh).
        let sim = SupermarketSim::new(300, 0.9);
        let one = sim.run(ChoicePolicy::shortest_of(1), 2_000.0, 5);
        let plain = sim.run(ChoicePolicy::shortest_of(2), 2_000.0, 5);
        let with_mem = sim.run(
            ChoicePolicy {
                choices: 2,
                threshold: None,
                memory: true,
            },
            2_000.0,
            5,
        );
        assert!(
            with_mem.mean_time_in_system * 2.0 < one.mean_time_in_system,
            "memory {} vs random walk {}",
            with_mem.mean_time_in_system,
            one.mean_time_in_system
        );
        assert!(
            with_mem.mean_time_in_system < plain.mean_time_in_system * 1.5,
            "memory {} vs plain two-choice {}",
            with_mem.mean_time_in_system,
            plain.mean_time_in_system
        );
    }

    #[test]
    fn littles_law_holds() {
        // L = λ_total · W within sampling error.
        let sim = SupermarketSim::new(200, 0.8);
        let out = sim.run(ChoicePolicy::shortest_of(2), 1_500.0, 9);
        let lambda_total = 0.8 * 200.0;
        let expected = lambda_total * out.mean_time_in_system;
        let rel = (out.time_weighted_customers - expected).abs() / expected;
        assert!(
            rel < 0.05,
            "L {} vs λW {} (rel {rel})",
            out.time_weighted_customers,
            expected
        );
    }

    #[test]
    fn served_count_is_sane() {
        let sim = SupermarketSim::new(100, 0.5);
        let out = sim.run(ChoicePolicy::shortest_of(2), 1_000.0, 6);
        // ~ λ·n·horizon = 50k arrivals.
        assert!(out.served > 40_000 && out.served < 60_000, "{}", out.served);
        assert!(out.max_queue >= 1);
    }
}
