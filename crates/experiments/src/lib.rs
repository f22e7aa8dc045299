//! Experiment harness regenerating **every figure** of the ERT paper.
//!
//! Each `figN` module reproduces one figure group of Section 5 and
//! returns [`report::Table`]s carrying the same series the paper plots;
//! [`thm41`] validates Theorem 4.1 against the supermarket model, and
//! [`bounds`] checks Theorems 3.1–3.3 on measured tables. The one
//! binary, `figures [<name>...]`, runs rows of the [`catalog`] table —
//! every row when no name is given — and writes CSVs to `results/`;
//! [`cli`] parses its command line once.
//!
//! Every figure function takes its scale as arguments so tests can run
//! reduced versions: [`Scenario::paper_default`] is Table 2 scale
//! (n = 2048, 3000 lookups, multiple seeds), [`Scenario::quick`] is
//! laptop-CI scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adversarial;
pub mod bounds;
pub mod catalog;
pub mod chord;
pub mod cli;
pub mod extensions;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod intro;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod thm41;

pub use cli::TelemetryOpts;
pub use report::Table;
pub use scenario::{
    average_reports, run_sweep, run_sweep_with, try_run_batch, ChurnSpec, RunCell, RunError,
    Scenario, Workload,
};
