//! Conformance oracles for the ERT reproduction.
//!
//! Three pillars, one crate:
//!
//! 1. **Golden-master shape regression** ([`shape`], [`specs`],
//!    [`golden`]) — every ✅ claim of EXPERIMENTS.md encoded as a
//!    [`shape::ShapeSpec`]: protocol orderings at axis points, extrema,
//!    monotonicity, flatness, and tolerance-banded ratios — never
//!    absolute values. Specs evaluate both against the committed
//!    `results/*.csv` golden masters and against freshly-run quick-mode
//!    sweeps, so a refactor that silently flips "NS worse than Base"
//!    fails CI instead of surviving until someone rereads a figure.
//! 2. **Differential oracles** ([`diff`], [`envelopes`]) — the
//!    supermarket ODE / closed-form model cross-checked against the
//!    discrete-event simulation and the `ert-network` forwarding path
//!    on matched parameters, `ert-minidht`'s Chord platform
//!    cross-checked against the pure `ChordRegistry` geometry and its
//!    Cycloid platform against `ert-network` on identical member sets;
//!    plus multi-seed Theorem 3.1–4.1 envelope runners.
//! 3. **A shared strategy library** ([`strategies`]) — the audited
//!    scenario space every property test draws from (proptest
//!    strategies plus the deterministic builders the pinned
//!    determinism tests share), replacing per-file copies.
//!
//! See DESIGN.md "Testing & Oracles" for the pillar table and how to
//! add a spec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod envelopes;
pub mod golden;
pub mod shape;
pub mod specs;
pub mod strategies;

pub use shape::{Axis, Layout, SeriesSet, ShapeCheck, ShapeSpec, Tier, Violation};
