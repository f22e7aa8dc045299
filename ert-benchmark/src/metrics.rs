//! The benchmark's metric vocabulary: every name the command can
//! print, with its unit, direction and — for end-to-end metrics — the
//! regression bound. `BENCHMARK.json` at the repo root repeats these
//! tables; `tests/contract.rs` keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: reported by every workload from the untraced
/// pass.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// True when the value is a function of the seed alone (simulated
    /// statistics and completion): a change that only makes the host
    /// faster must leave it bit-identical, and `compare` checks that
    /// on matching seeds.
    pub exact: bool,
}

/// A per-layer metric: reported by every workload from the traced
/// pass. Zero means the layer is not on that workload's path.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

/// The eight end-to-end metrics. Bounds on the exact metrics exist
/// only because runs are compared across seeds too, where simulated
/// statistics legitimately differ; on one seed they repeat exactly.
pub const END_TO_END: [EndToEnd; 8] = [
    host("setup_s", "s", Better::Lower, 0.25),
    host("lookups_per_s", "1/s", Better::Higher, 0.25),
    host("peak_rss_mb", "MB", Better::Lower, 0.1),
    exact("completed_frac", "ratio", Better::Higher, 0.001),
    exact("sim_lookup_p50_s", "s", Better::Lower, 0.2),
    exact("sim_lookup_p99_s", "s", Better::Lower, 0.25),
    exact("sim_p99_max_congestion", "ratio", Better::Lower, 0.15),
    exact("sim_mean_hops", "count", Better::Lower, 0.05),
];

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, outermost crate last. Counts are exact,
/// times are medians, `*_share_est` are outside-in estimates of a
/// layer's share of `run` time.
pub const PER_LAYER: [Layer; 47] = [
    lower("sim.queue_ns_per_op", "ns"),
    lower("sim.sharded8_ns_per_op", "ns"),
    lower("sim.queue_share_est", "ratio"),
    lower("overlay.route_step_ns", "ns"),
    lower("overlay.owner_ns", "ns"),
    lower("overlay.region_query_ns", "ns"),
    lower("core.decision_ns", "ns"),
    lower("core.decision_share_est", "ratio"),
    lower("core.table_op_ns", "ns"),
    lower("core.purge_ns", "ns"),
    lower("core.adapt_decision_ns", "ns"),
    lower("network.events", "count"),
    lower("network.hops", "count"),
    lower("network.adapt_rounds", "count"),
    lower("network.churn_events", "count"),
    lower("network.new_ms", "ms"),
    lower("network.us_per_event", "us"),
    lower("network.us_per_hop", "us"),
    lower("network.probes_per_decision", "ratio"),
    lower("network.maintenance_per_lookup", "ratio"),
    lower("network.timeouts_per_lookup", "ratio"),
    lower("network.handoffs_per_lookup", "ratio"),
    lower("network.idle_tick_us", "us"),
    lower("network.tick_share_est", "ratio"),
    lower("network.shards8_over_single", "ratio"),
    lower("telemetry.enabled_overhead_frac", "ratio"),
    lower("telemetry.events_emitted", "count"),
    lower("workloads.gen_ms", "ms"),
    higher("par.speedup_w2", "ratio"),
    lower("minidht.new_ms", "ms"),
    higher("minidht.lookups_per_s", "1/s"),
    lower("minidht.us_per_hop", "us"),
    lower("node.cluster_new_ms", "ms"),
    lower("node.us_per_hop", "us"),
    lower("node.wire_over_sim", "ratio"),
    lower("node.probe_rpcs_per_hop", "ratio"),
    lower("node.adapt_rpcs", "count"),
    lower("node.trace_hops", "count"),
    lower("node.codec_encode_ns", "ns"),
    lower("node.codec_decode_ns", "ns"),
    lower("node.codec_frame_bytes", "count"),
    lower("node.probe_request_ns", "ns"),
    lower("node.codec_share_est", "ratio"),
    lower("report.digest_ms", "ms"),
    lower("trace.overhead_frac", "ratio"),
    lower("run.unattributed_share_est", "ratio"),
    lower("bench.machine_slowdown", "ratio"),
];
