//! [`Summary`], the fixed six-field digest the paper's figures plot.
//!
//! `Summary` lives here (rather than in `ert_sim::stats`, which
//! re-exports it) so the observability layer can be used below the
//! simulator without a dependency cycle. Its serialized field order is
//! part of the report format pinned by `tests/parallel_determinism.rs`
//! and must not change.

use std::fmt;

use serde::Serialize;

/// A digest of an observation stream: the statistics the paper's
/// figures plot.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 1st percentile.
    pub p01: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} p01={:.4} p50={:.4} p99={:.4} max={:.4} (n={})",
            self.mean, self.p01, self.p50, self.p99, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> Summary {
        Summary {
            count: 100,
            mean: 5.0,
            p01: 1.0,
            p50: 4.0,
            p99: 9.0,
            max: 10.0,
        }
    }

    #[test]
    fn display_shape() {
        let s = digest().to_string();
        assert!(s.contains("mean=5.0000"), "{s}");
        assert!(s.contains("(n=100)"), "{s}");
    }

    #[test]
    fn serialized_field_order_is_pinned() {
        // The report pin in tests/parallel_determinism.rs depends on
        // exactly this byte sequence.
        let d = digest();
        assert_eq!(
            serde::json::to_string(&d),
            "{\"count\":100,\"mean\":5.0,\"p01\":1.0,\"p50\":4.0,\"p99\":9.0,\"max\":10.0}"
        );
    }
}
