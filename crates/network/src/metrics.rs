//! Run metrics: everything the paper's figures plot, collected during a
//! run and digested into a [`RunReport`].

use std::fmt;

use ert_sim::stats::{Samples, Summary};
use serde::Serialize;

use crate::topology::Topology;

/// Raw counters accumulated while the simulation runs.
///
/// The per-query series (`lookup_times`, `path_lengths`,
/// `min_cap_congestion`) keep every observation, so the report's
/// percentiles are exact. Everything else is bounded by the host count
/// or is a plain counter.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Lookups injected.
    pub lookups_started: u64,
    /// Lookups that reached their key's owner.
    pub lookups_completed: u64,
    /// Lookups dropped by the hop-limit safety valve.
    pub lookups_dropped: u64,
    /// Lookups lost to injected faults: queries on a crashed host, or
    /// forwards whose retry budget ran out (see `ert-faults`). Always 0
    /// without a fault plan.
    pub lookups_failed: u64,
    /// Forward attempts re-issued after a fault loss under the
    /// configured retry policy.
    pub retries: u64,
    /// Forwards that hit a departed node before discovering the stale
    /// link (Section 5.5's time-out metric).
    pub timeouts: u64,
    /// Queries handed to a ring successor because their node departed
    /// while they were in flight or queued — churn overhead every
    /// protocol pays, kept separate from the stale-link timeouts.
    pub handoffs: u64,
    /// Heavy hosts encountered by queries in routing (Fig. 5a).
    pub heavy_encounters: u64,
    /// Load probes issued by forwarding decisions.
    pub probes: u64,
    /// Forwarding decisions taken.
    pub forward_decisions: u64,
    /// Per-lookup end-to-end times in seconds (Fig. 5c).
    pub lookup_times: Samples,
    /// Per-lookup hop counts (Fig. 5b).
    pub path_lengths: Samples,
    /// Congestion samples of the minimum-capacity host (Fig. 4b).
    pub min_cap_congestion: Samples,
    /// Elastic link operations (adds, sheds, purges) over the run —
    /// the Section 5.3 maintenance cost.
    pub maintenance_ops: u64,
}

/// The digested result of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Protocol name.
    pub protocol: String,
    /// Lookups injected.
    pub lookups_started: u64,
    /// Lookups completed.
    pub lookups_completed: u64,
    /// Lookups dropped at the hop limit.
    pub lookups_dropped: u64,
    /// Lookups lost to injected faults (crashes, exhausted retry
    /// budgets). Conservation holds per run:
    /// `lookups_completed + lookups_dropped + lookups_failed` equals the
    /// lookups issued. Always 0 without a fault plan.
    pub lookups_failed: u64,
    /// 99th percentile over hosts of each host's maximum congestion
    /// (Fig. 4a / 9a).
    pub p99_max_congestion: f64,
    /// 99th percentile of the minimum-capacity host's congestion samples
    /// (Fig. 4b).
    pub p99_min_capacity_congestion: f64,
    /// 99th percentile over hosts of the fair-share ratio `s_i`
    /// (Fig. 4c / 8c / 9b).
    pub p99_share: f64,
    /// Total heavy hosts encountered in routings (Fig. 5a / 8a / 10a).
    pub heavy_encounters: u64,
    /// Mean lookup path length in hops (Fig. 5b / 10b).
    pub mean_path_length: f64,
    /// Lookup time digest in seconds (Fig. 5c / 8b / 10c).
    pub lookup_time: Summary,
    /// Digest over hosts of the maximum elastic indegree each exhibited
    /// (Fig. 7a).
    pub max_indegree: Summary,
    /// Digest over hosts of the maximum outdegree each exhibited
    /// (Fig. 7b).
    pub max_outdegree: Summary,
    /// Digest over hosts of the busy-time fraction (how much of the
    /// run each host spent serving) — the paper's "full use of each
    /// node's capacity" claim, measured.
    pub utilization: Summary,
    /// Spearman rank correlation between raw capacity and busy-time
    /// fraction: capacity-proportional load distribution shows up as a
    /// positive value.
    pub capacity_utilization_correlation: f64,
    /// Mean stale-link timeouts per lookup (Section 5.5).
    pub timeouts_per_lookup: f64,
    /// Mean departed-node handoffs per lookup (churn overhead common to
    /// all protocols).
    pub handoffs_per_lookup: f64,
    /// Mean fault-loss retries per issued lookup — the recovery
    /// overhead of the configured `RetryPolicy`. Always 0 without a
    /// fault plan (or with retries disabled).
    pub retries_per_lookup: f64,
    /// Mean load probes per forwarding decision.
    pub probes_per_decision: f64,
    /// Elastic link operations (adds, sheds, purges) per completed
    /// lookup — Section 5.3's maintenance cost, measured as messages.
    pub maintenance_per_lookup: f64,
    /// Simulated seconds the run covered.
    pub sim_seconds: f64,
}

/// Spearman rank correlation: robust to the heavy-tailed capacity
/// distribution, which would dominate a plain Pearson coefficient.
/// Returns 0.0 for fewer than two pairs or mismatched series lengths.
fn rank_correlation(xs: impl Iterator<Item = f64>, ys: impl Iterator<Item = f64>) -> f64 {
    let xs: Vec<f64> = xs.collect();
    let ys: Vec<f64> = ys.collect();
    if xs.len() < 2 || xs.len() != ys.len() {
        return 0.0;
    }
    pearson(ranks(&xs).into_iter(), ranks(&ys).into_iter(), xs.len())
}

/// Average ranks (ties get the midpoint), 1-based.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    #[expect(
        clippy::expect_used,
        reason = "the report ranks capacities and busy fractions of a finite horizon, never NaN; `ranks_reject_nan` pins that a NaN is refused loudly, not misranked"
    )]
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaN"));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        #[expect(
            clippy::float_cmp,
            reason = "a rank tie is exact equality by definition: equal observations share the midpoint rank"
        )]
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = rank;
        }
        i = j + 1;
    }
    out
}

fn pearson(xs: impl Iterator<Item = f64>, ys: impl Iterator<Item = f64>, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let pairs: Vec<(f64, f64)> = xs.zip(ys).collect();
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in &pairs {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {}/{} lookups ({} dropped, {} failed), path {:.2} hops, time {:.3}s (p99 {:.3}s)",
            self.protocol,
            self.lookups_completed,
            self.lookups_started,
            self.lookups_dropped,
            self.lookups_failed,
            self.mean_path_length,
            self.lookup_time.mean,
            self.lookup_time.p99,
        )?;
        write!(
            f,
            "  p99 congestion {:.3}, p99 share {:.3}, heavy {}, timeouts/lookup {:.4}, maint/lookup {:.2}",
            self.p99_max_congestion,
            self.p99_share,
            self.heavy_encounters,
            self.timeouts_per_lookup,
            self.maintenance_per_lookup,
        )
    }
}

impl Metrics {
    /// Digests the counters plus the topology's final host state into a
    /// report.
    ///
    /// Every host counts, departed ones included: the paper's churn
    /// metrics are "collected from all node\[s\] including ... the nodes
    /// departed".
    pub fn into_report(self, protocol: &str, topo: &Topology, sim_seconds: f64) -> RunReport {
        let hosts = &topo.hosts;
        let max_congestion: Samples = hosts.iter().map(|h| h.max_congestion).collect();
        let mut shares = Samples::new();
        let total_load: f64 = hosts.iter().map(|h| h.total_received as f64).sum();
        let total_cap: f64 = hosts.iter().map(|h| h.raw_capacity).sum();
        if total_load > 0.0 && total_cap > 0.0 {
            for h in hosts {
                let s = (h.total_received as f64 / total_load) / (h.raw_capacity / total_cap);
                shares.push(s);
            }
        }
        let watermarks = (0..hosts.len()).map(|h| topo.degree_watermark(h));
        let (in_deg, out_deg): (Samples, Samples) = watermarks
            .map(|(ins, outs)| (f64::from(ins), f64::from(outs)))
            .unzip();
        let horizon_micros = (sim_seconds * 1e6).max(1.0);
        let utilization: Samples = hosts
            .iter()
            .map(|h| (h.busy_micros as f64 / horizon_micros).min(1.0))
            .collect();
        let correlation = rank_correlation(
            hosts.iter().map(|h| h.raw_capacity),
            hosts
                .iter()
                .map(|h| (h.busy_micros as f64 / horizon_micros).min(1.0)),
        );
        RunReport {
            protocol: protocol.to_owned(),
            lookups_started: self.lookups_started,
            lookups_completed: self.lookups_completed,
            lookups_dropped: self.lookups_dropped,
            lookups_failed: self.lookups_failed,
            p99_max_congestion: max_congestion.percentile(0.99),
            p99_min_capacity_congestion: self.min_cap_congestion.percentile(0.99),
            p99_share: shares.percentile(0.99),
            heavy_encounters: self.heavy_encounters,
            mean_path_length: self.path_lengths.mean(),
            lookup_time: self.lookup_times.summary(),
            max_indegree: in_deg.summary(),
            max_outdegree: out_deg.summary(),
            utilization: utilization.summary(),
            capacity_utilization_correlation: correlation,
            timeouts_per_lookup: if self.lookups_completed == 0 {
                0.0
            } else {
                self.timeouts as f64 / self.lookups_completed as f64
            },
            handoffs_per_lookup: if self.lookups_completed == 0 {
                0.0
            } else {
                self.handoffs as f64 / self.lookups_completed as f64
            },
            retries_per_lookup: if self.lookups_started == 0 {
                0.0
            } else {
                self.retries as f64 / self.lookups_started as f64
            },
            probes_per_decision: if self.forward_decisions == 0 {
                0.0
            } else {
                self.probes as f64 / self.forward_decisions as f64
            },
            maintenance_per_lookup: if self.lookups_completed == 0 {
                0.0
            } else {
                self.maintenance_ops as f64 / self.lookups_completed as f64
            },
            sim_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Host;
    use ert_overlay::Coord;

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 5.0]), vec![2.0, 3.5, 3.5, 1.0]);
    }

    #[test]
    fn ranks_tie_heavy_inputs_share_midpoint_ranks() {
        // All equal: everyone gets the midpoint rank (n + 1) / 2.
        assert_eq!(ranks(&[7.0; 5]), vec![3.0; 5]);
        // Two tie groups: ranks average within each group and the
        // total still sums to n(n+1)/2.
        let r = ranks(&[1.0, 1.0, 1.0, 9.0, 9.0]);
        assert_eq!(r, vec![2.0, 2.0, 2.0, 4.5, 4.5]);
        assert_eq!(r.iter().sum::<f64>(), 15.0);
        // Ties interleaved with distinct values.
        assert_eq!(ranks(&[3.0, 1.0, 3.0, 2.0]), vec![3.5, 1.0, 3.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "no NaN")]
    fn ranks_reject_nan() {
        ranks(&[1.0, f64::NAN, 2.0]);
    }

    #[test]
    fn rank_correlation_signs() {
        let up = rank_correlation(
            [1.0, 2.0, 3.0, 4.0].into_iter(),
            [10.0, 20.0, 30.0, 400.0].into_iter(),
        );
        assert!((up - 1.0).abs() < 1e-12, "monotone pairs: {up}");
        let down = rank_correlation([1.0, 2.0, 3.0].into_iter(), [3.0, 2.0, 1.0].into_iter());
        assert!((down + 1.0).abs() < 1e-12);
        assert_eq!(rank_correlation([1.0].into_iter(), [1.0].into_iter()), 0.0);
    }

    #[test]
    fn rank_correlation_degenerate_inputs_are_zero() {
        // Mismatched lengths refuse rather than misalign.
        assert_eq!(
            rank_correlation([1.0, 2.0, 3.0].into_iter(), [1.0, 2.0].into_iter()),
            0.0
        );
        // A constant series has zero rank variance.
        assert_eq!(
            rank_correlation([5.0, 5.0, 5.0].into_iter(), [1.0, 2.0, 3.0].into_iter()),
            0.0
        );
        assert_eq!(
            rank_correlation(std::iter::empty(), std::iter::empty()),
            0.0
        );
    }

    fn host(raw: f64, received: u64, max_g: f64) -> Host {
        let mut h = Host::new(raw, 1.0, 1.0, 10, Coord::new(0.0, 0.0));
        h.total_received = received;
        h.max_congestion = max_g;
        h
    }

    /// A topology of `hosts` backing no nodes.
    fn topo_of(hosts: Vec<Host>) -> Topology {
        let space = ert_overlay::CycloidSpace::new(2);
        let params = ert_core::ErtParams::default();
        let mut topo = Topology::new(space, crate::spec::TablePolicy::Elastic, params);
        for h in hosts {
            topo.add_host(h);
        }
        topo
    }

    #[test]
    fn report_computes_shares_and_percentiles() {
        let topo = topo_of(vec![host(100.0, 10, 0.5), host(100.0, 30, 2.0)]);
        let mut m = Metrics {
            lookups_started: 40,
            lookups_completed: 40,
            ..Metrics::default()
        };
        m.lookup_times.push(1.0);
        m.path_lengths.push(4.0);
        let r = m.into_report("Test", &topo, 12.5);
        assert_eq!(r.protocol, "Test");
        assert_eq!(r.p99_max_congestion, 2.0);
        // Equal capacities: share is load/mean-load.
        assert!((r.p99_share - 1.5).abs() < 1e-12);
        assert_eq!(r.mean_path_length, 4.0);
        assert_eq!(r.sim_seconds, 12.5);
        assert_eq!(r.timeouts_per_lookup, 0.0);
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let r = Metrics::default().into_report("Empty", &topo_of(vec![]), 0.0);
        assert_eq!(r.lookups_completed, 0);
        assert_eq!(r.p99_share, 0.0);
        assert_eq!(r.probes_per_decision, 0.0);
    }

    #[test]
    fn failed_lookups_flow_into_the_report() {
        let m = Metrics {
            lookups_started: 10,
            lookups_completed: 6,
            lookups_dropped: 1,
            lookups_failed: 3,
            ..Metrics::default()
        };
        let r = m.into_report("F", &topo_of(vec![]), 1.0);
        assert_eq!(r.lookups_failed, 3);
        assert_eq!(r.retries_per_lookup, 0.0);
        assert_eq!(
            r.lookups_completed + r.lookups_dropped + r.lookups_failed,
            r.lookups_started
        );
        assert!(r.to_string().contains("3 failed"), "{r}");
    }

    #[test]
    fn report_display_is_one_glance() {
        let topo = topo_of(vec![host(100.0, 10, 0.5)]);
        let mut m = Metrics {
            lookups_started: 10,
            lookups_completed: 10,
            ..Metrics::default()
        };
        m.lookup_times.push(2.0);
        m.path_lengths.push(5.0);
        let text = m.into_report("ERT/AF", &topo, 3.0).to_string();
        assert!(text.contains("ERT/AF: 10/10 lookups"));
        assert!(text.contains("p99 congestion"));
    }

    #[test]
    fn probe_rate() {
        let m = Metrics {
            probes: 10,
            forward_decisions: 5,
            ..Metrics::default()
        };
        let r = m.into_report("P", &topo_of(vec![]), 1.0);
        assert_eq!(r.probes_per_decision, 2.0);
    }
}
