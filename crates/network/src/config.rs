//! Simulation configuration (Table 2 of the paper).

use ert_core::{ErtParams, Estimator};
use ert_faults::RetryPolicy;
use ert_sim::SimDuration;

/// Environment parameters of one simulation run.
///
/// Defaults reproduce Table 2: query processing takes 0.2 s on a light
/// node and 1 s on a heavy one; the indegree-adaptation period is 1 s;
/// `α = d + 3` is set by [`NetworkConfig::for_dimension`].
///
/// ```
/// use ert_network::NetworkConfig;
/// let cfg = NetworkConfig::for_dimension(8, 42);
/// assert_eq!(cfg.ert.alpha, 11.0);
/// assert_eq!(cfg.light_service.as_secs_f64(), 0.2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Master seed; every random stream of the run forks from it.
    pub seed: u64,
    /// Service time of one query on a light host.
    pub light_service: SimDuration,
    /// Service time of one query on a heavy host.
    pub heavy_service: SimDuration,
    /// Per-hop network latency per unit of coordinate distance.
    /// Coordinates live on the unit torus (max distance ≈ 0.707), so the
    /// default 0.05 yields hops of 0–35 ms.
    pub latency_scale: f64,
    /// Latency penalty paid when a query is forwarded to a departed
    /// node before the stale link is discovered.
    pub timeout_penalty: SimDuration,
    /// ERT protocol parameters (`α`, `β`, `γ_l`, `μ`, period, `b`).
    pub ert: ErtParams,
    /// Capacity / network-size estimation error model (`γ_c`, `γ_n`).
    pub estimator: Estimator,
    /// Safety valve: a query is dropped after this many hops (never hit
    /// in correct configurations; guards against livelock in tests).
    pub max_hops: u32,
    /// Anonymity mode (introduction: Freenet/Mantis-style systems relay
    /// data through the query path instead of a direct connection):
    /// when on, the response retraces the request path hop by hop,
    /// loading every intermediate node a second time.
    pub anonymous_responses: bool,
    /// Number of trace entries to retain for debugging (0 disables
    /// tracing; see [`ert_sim::TraceLog`]).
    pub trace_capacity: usize,
    /// Telemetry sampling interval: every Δt of sim time the run takes
    /// a time-series snapshot (congestion percentiles, degree census,
    /// queue depths, utilization). Zero — the default — disables the
    /// sampler entirely: no sample events are scheduled, so the event
    /// sequence is identical to an unsampled run.
    pub sample_interval: SimDuration,
    /// When nonzero, physical distances are *estimated* from landmark
    /// vectors of this many landmarks (the paper's landmarking method,
    /// refs. \[30\],\[31\]) instead of read exactly from coordinates.
    pub landmark_count: usize,
    /// Classic-DHT periodic stabilization: when on, every adaptation
    /// period each node proactively purges departed entry neighbors and
    /// repairs the slots, instead of discovering them lazily through
    /// timeouts. Off by default (the paper's protocols repair lazily;
    /// ERT's candidate sets make stabilization largely redundant).
    pub stabilization: bool,
    /// How forwards lost to injected faults (message drops, partition
    /// blocks — see `ert-faults`) are retried. The default grants a
    /// single attempt (retries off), so paper runs without a fault plan
    /// behave byte-identically to a build that has never heard of
    /// faults.
    pub retry: RetryPolicy,
    /// Shard count for the shared-nothing sharded event core. Zero —
    /// the default — keeps the legacy single global event loop; any
    /// `S >= 1` runs the same simulation on [`ert_sim::ShardedEngine`]
    /// with the node population partitioned by ID-space prefix.
    /// Reports are byte-identical for every value of this knob (pinned
    /// by `tests/shard_determinism.rs`).
    pub shards: usize,
}

impl NetworkConfig {
    /// Table 2 defaults for a Cycloid of dimension `dim`, with `α` set
    /// to `dim + 3`.
    pub fn for_dimension(dim: u8, seed: u64) -> Self {
        NetworkConfig {
            seed,
            light_service: SimDuration::from_secs_f64(0.2),
            heavy_service: SimDuration::from_secs_f64(1.0),
            latency_scale: 0.05,
            timeout_penalty: SimDuration::from_secs_f64(0.5),
            ert: ErtParams::default().with_alpha_for_dim(dim),
            estimator: Estimator::default(),
            max_hops: 64 + 8 * dim as u32,
            anonymous_responses: false,
            trace_capacity: 0,
            sample_interval: SimDuration::ZERO,
            landmark_count: 0,
            stabilization: false,
            retry: RetryPolicy::default(),
            shards: 0,
        }
    }

    /// Sets both service times, keeping the paper's 5× heavy/light ratio
    /// used in the skewed-lookup sweep (Section 5.4).
    #[must_use]
    pub fn with_light_service_secs(mut self, light: f64) -> Self {
        self.light_service = SimDuration::from_secs_f64(light);
        self.heavy_service = SimDuration::from_secs_f64(light * 5.0);
        self
    }

    /// Checks configuration sanity.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.ert.validate().map_err(|e| e.to_string())?;
        if self.light_service == SimDuration::ZERO {
            return Err("light service time must be positive".into());
        }
        if self.heavy_service == SimDuration::ZERO {
            return Err("heavy service time must be positive".into());
        }
        if self.heavy_service < self.light_service {
            return Err("heavy service must not be faster than light".into());
        }
        if !(self.latency_scale >= 0.0 && self.latency_scale.is_finite()) {
            return Err("latency scale must be non-negative and finite".into());
        }
        if self.max_hops == 0 {
            return Err("max hops must be positive".into());
        }
        self.retry
            .validate()
            .map_err(|e| format!("retry policy: {e}"))?;
        if self.shards > 4096 {
            return Err("shard count above 4096 is surely a typo".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        NetworkConfig::for_dimension(8, 1).validate().unwrap();
    }

    #[test]
    fn service_sweep_keeps_ratio() {
        let cfg = NetworkConfig::for_dimension(8, 1).with_light_service_secs(0.6);
        assert!((cfg.light_service.as_secs_f64() - 0.6).abs() < 1e-9);
        assert!((cfg.heavy_service.as_secs_f64() - 3.0).abs() < 1e-9);
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_inverted_service_times() {
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.heavy_service = SimDuration::from_secs_f64(0.1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_light_service() {
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.light_service = SimDuration::ZERO;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("light service"), "{err}");
    }

    #[test]
    fn rejects_zero_heavy_service() {
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        // Zero light would trip first; make light tiny but positive.
        cfg.light_service = SimDuration::from_micros(1);
        cfg.heavy_service = SimDuration::ZERO;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("heavy service"), "{err}");
    }

    #[test]
    fn rejects_nan_latency_scale() {
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.latency_scale = f64::NAN;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("latency scale"), "{err}");
    }

    #[test]
    fn rejects_infinite_latency_scale() {
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.latency_scale = f64::INFINITY;
        assert!(cfg.validate().is_err());
        cfg.latency_scale = -0.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_inconsistent_retry_policy() {
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.retry.max_attempts = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("retry policy:"), "{err}");

        // Enabled retries with a zero base backoff are inconsistent...
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.retry.max_attempts = 3;
        cfg.retry.base = SimDuration::ZERO;
        assert!(cfg.validate().is_err());

        // ...as is a shrinking backoff factor.
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.retry = RetryPolicy::standard();
        cfg.retry.factor = 0.25;
        assert!(cfg.validate().is_err());

        // A well-formed enabled policy passes.
        let mut cfg = NetworkConfig::for_dimension(8, 1);
        cfg.retry = RetryPolicy::standard();
        cfg.validate().unwrap();
    }
}
