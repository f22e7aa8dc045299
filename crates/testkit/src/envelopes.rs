//! Multi-seed theorem envelopes.
//!
//! The `ert-experiments::bounds` checkers validate one seed at a time;
//! these wrappers sweep seed lists and aggregate, so a theorem test
//! makes one call and gets a per-seed audit trail back. A bound that
//! holds "with high probability" (Thm 3.3's γ-dependent outdegree cap,
//! Thm 4.1's exponential improvement) is only convincing when it holds
//! across independent topologies — a single lucky seed is not a proof
//! artifact.

use ert_experiments::bounds::{theorem31_check, theorem33_check};
use ert_supermarket::{expected_time, ChoicePolicy, SupermarketSim};

/// Aggregated multi-seed verdict for one theorem bound.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// What was checked.
    pub label: String,
    /// One `(seed, ok)` entry per run.
    pub runs: Vec<(u64, bool)>,
    /// Per-seed diagnostic lines (table renders or ratio summaries).
    pub details: Vec<String>,
}

impl Envelope {
    /// True when every seed satisfied the bound.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|&(_, ok)| ok)
    }

    /// Failure-message summary: label, verdicts, and the diagnostics
    /// of failing seeds.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!("{}: {:?}\n", self.label, self.runs);
        for ((_, ok), detail) in self.runs.iter().zip(&self.details) {
            if !ok {
                out.push_str(detail);
                out.push('\n');
            }
        }
        out
    }
}

/// Theorem 3.1 over a seed grid: every node's initial indegree cap
/// lies within the capacity-estimation envelope, at each `gamma_c`.
#[must_use]
pub fn theorem31_envelope(n: usize, gamma_cs: &[f64], seeds: &[u64]) -> Envelope {
    let mut runs = Vec::new();
    let mut details = Vec::new();
    for &seed in seeds {
        let mut seed_ok = true;
        let mut detail = String::new();
        for &gc in gamma_cs {
            let (table, ok) = theorem31_check(n, gc, seed, 0);
            seed_ok &= ok;
            detail.push_str(&table.render());
        }
        runs.push((seed, seed_ok));
        details.push(detail);
    }
    Envelope {
        label: format!("Thm 3.1 (n={n}, gamma_c {gamma_cs:?})"),
        runs,
        details,
    }
}

/// Theorem 3.3 over seeds: after a lookup burst drives adaptation,
/// every node's outdegree respects the `c_max/ν_min`-scaled cap.
#[must_use]
pub fn theorem33_envelope(n: usize, lookups: usize, seeds: &[u64]) -> Envelope {
    let mut runs = Vec::new();
    let mut details = Vec::new();
    for &seed in seeds {
        let (table, ok) = theorem33_check(n, lookups, seed, 0);
        runs.push((seed, ok));
        details.push(table.render());
    }
    Envelope {
        label: format!("Thm 3.3 (n={n}, {lookups} lookups)"),
        runs,
        details,
    }
}

/// Theorem 4.1 over seeds: the simulated two-choice system beats the
/// simulated one-choice system by at least `min_speedup`, and the
/// measured times land on the model's side of the exponential gap.
#[must_use]
pub fn theorem41_envelope(
    n: usize,
    lambda: f64,
    horizon: f64,
    min_speedup: f64,
    seeds: &[u64],
) -> Envelope {
    let sim = SupermarketSim::new(n, lambda);
    let model_gap = expected_time(lambda, 1) / expected_time(lambda, 2);
    let mut runs = Vec::new();
    let mut details = Vec::new();
    for &seed in seeds {
        let t1 = sim
            .run(ChoicePolicy::shortest_of(1), horizon, seed)
            .mean_time_in_system;
        let t2 = sim
            .run(ChoicePolicy::shortest_of(2), horizon, seed)
            .mean_time_in_system;
        let speedup = t1 / t2;
        let ok = speedup >= min_speedup;
        runs.push((seed, ok));
        details.push(format!(
            "seed {seed}: t1 {t1:.3} / t2 {t2:.3} = {speedup:.3}x (floor {min_speedup}, model gap {model_gap:.3})"
        ));
    }
    Envelope {
        label: format!("Thm 4.1 (n={n}, λ={lambda}, ≥{min_speedup}x)"),
        runs,
        details,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_aggregation_logic() {
        let e = Envelope {
            label: "t".into(),
            runs: vec![(1, true), (2, false)],
            details: vec!["d1".into(), "d2".into()],
        };
        assert!(!e.all_ok());
        assert!(e.summary().contains("d2"));
        assert!(!e.summary().contains("d1"));
        let empty = Envelope {
            label: "e".into(),
            runs: vec![],
            details: vec![],
        };
        assert!(!empty.all_ok(), "vacuous envelopes must not pass");
    }
}
